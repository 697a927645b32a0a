"""The forked worker that telescope and partitions share: when it is
used, what it answers, and that no run leaves it behind however the run
ends."""

import errno
import marshal
import os
import threading
import time

import pytest

import pentagon._worker
import pentagon.partitions
import pentagon.telescope
from pentagon.partitions import partitions_recurrence
from pentagon.telescope import replay_stages, run_telescope
from pentagon.verify import full_verification

from conftest import alarm, assert_no_child_left, hang_guard, use_worker

MODULES = (pentagon.partitions, pentagon.telescope)

# Each run is above the worker's break-even; the partition table at
# 10000 divides alone to 1500 and leaves the worker 25 blocks.
RUNS = {
    "telescope": lambda: run_telescope(1, 1500),
    "partitions": lambda: partitions_recurrence(10000),
}


@pytest.fixture
def tasks(monkeypatch):
    """Every task a run hands to a worker, and each time this process
    computed one itself; a worker's own calls land in its copy."""
    given, here = [], []
    parent = os.getpid()
    forked = pentagon._worker._forked

    def recorded(tasks):
        def counted(task):
            def run():
                if os.getpid() == parent:
                    here.append(task)
                return task()
            return run
        given.extend(tasks)
        return forked([counted(task) for task in tasks])

    for module in MODULES:
        monkeypatch.setattr(module, "_forked", recorded)
    return given, here


def test_a_worker_is_used_for_a_large_run_in_one_thread_with_two_cpus(monkeypatch):
    use = pentagon._worker._use_worker
    limit = pentagon._worker._WORKER_UPDATES
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert threading.active_count() == 1
    assert use(limit)
    assert not use(limit - 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert not use(limit)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not use(limit)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert use(limit)
    for name in ("fork", "memfd_create"):
        with monkeypatch.context() as patch:
            patch.delattr(os, name)
            assert not use(limit)


# three answers of 1.4 MB each, with integers of any size: each larger
# than a pipe's buffer, even the 1 MiB Linux allows
LARGE = [[(-7) ** (i % 100) + j for i in range(60_000)] for j in range(3)]


def test_the_answers_cross_the_log_whole_and_in_order():
    with pentagon._worker._forked([lambda j=j: LARGE[j] for j in range(3)]) as answers:
        assert list(answers) == LARGE
    assert_no_child_left()


def test_the_worker_runs_ahead_of_a_reader_that_reads_nothing(tmp_path):
    # each task leaves a marker as it starts; a worker whose sends waited
    # on this process would never start the last task
    def task(j):
        def run():
            (tmp_path / str(j)).touch()
            return LARGE[j]
        return run

    with pentagon._worker._forked([task(j) for j in range(3)]) as answers:
        deadline = time.monotonic() + 10
        while not (tmp_path / "2").exists():
            assert time.monotonic() < deadline, "the worker waited on its reader"
            time.sleep(0.01)
        assert list(answers) == LARGE
    assert_no_child_left()


def test_an_answer_arrives_while_the_worker_computes_the_next():
    start = time.monotonic()
    with pentagon._worker._forked((lambda: 1, lambda: time.sleep(60))) as answers:
        assert next(answers) == 1
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_caller_need_not_wait_for_the_answer():
    start = time.monotonic()
    with pentagon._worker._forked((lambda: time.sleep(60),)):
        pass
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("run", RUNS, ids=RUNS)
def test_a_worker_answers_and_is_gone(monkeypatch, tasks, run):
    use_worker(monkeypatch, False)
    alone = RUNS[run]()
    assert tasks == ([], [])
    use_worker(monkeypatch, True)
    with hang_guard():
        assert RUNS[run]() == alone
    given, here = tasks
    assert given and here == []
    assert_no_child_left()


@pytest.mark.parametrize("run", (
    lambda: full_verification(2**62),
    lambda: run_telescope(1, 2**62),
    lambda: replay_stages(1, 3, 2**62),
    lambda: partitions_recurrence(2**62),
), ids=("verify", "telescope", "telescope-stages", "partitions"))
def test_an_order_no_list_can_hold_fails_before_any_split_or_fork(monkeypatch, run):
    # a split weighed at this order would outlast the guard, and a fork
    # fails the test at once
    use_worker(monkeypatch, True)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a worker was forked"))
    with hang_guard(), pytest.raises(
            ValueError, match=f"^order: {2**62} is too large to hold$"):
        run()


def break_fork(monkeypatch, sent=0):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)


def record_logs(monkeypatch):
    """The file of each log opened from now on, in order: a table's own
    log, then each fork's answer log."""
    logs = []
    memfd_create = os.memfd_create

    def recorded_memfd(*args):
        logs.append(memfd_create(*args))
        return logs[-1]

    monkeypatch.setattr(os, "memfd_create", recorded_memfd)
    return logs


def stop_after(monkeypatch, sent, last):
    """The worker sends ``sent`` answers, then calls ``last`` with the
    next answer's marshal bytes and the file of its answer log; in the
    worker ``dumps`` runs once per task done, and in this process it
    frames what a partitions table sends its worker, untouched."""
    logs = record_logs(monkeypatch)
    parent = os.getpid()
    count = 0

    def dumps(value):
        nonlocal count
        data = marshal.dumps(value)
        if os.getpid() == parent:
            return data
        count += 1
        return data if count <= sent else last(data, logs[-1])

    monkeypatch.setattr(pentagon._worker, "dumps", dumps)


def exit_silently(monkeypatch, sent=0):
    stop_after(monkeypatch, sent, lambda data, out: os._exit(0))


def truncate_answer(monkeypatch, sent=0):
    # a whole frame whose marshal bytes are cut short
    stop_after(monkeypatch, sent, lambda data, out: data[:-1])


def truncate_frame(monkeypatch, sent=0):
    # the worker dies halfway through writing a frame
    def half(data, out):
        header = len(data).to_bytes(pentagon._worker._HEADER, "little")
        os.write(out, header + data[:len(data) // 2])
        os._exit(0)
    stop_after(monkeypatch, sent, half)


def limit_log(monkeypatch, index, taken, half):
    """The file of the log ``record_logs`` lists at ``index`` takes
    ``taken`` frames, then refuses the next, as a full file system does,
    or takes only half of it, then takes any later one whole again;
    returns the logs."""
    logs = record_logs(monkeypatch)
    write = os.write
    count = 0

    def full_write(fd, data):
        nonlocal count
        if fd == logs[index]:
            count += 1
            if count == taken + 1:
                if half:
                    return write(fd, data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")
        return write(fd, data)

    monkeypatch.setattr(os, "write", full_write)
    return logs


def refuse_answer(monkeypatch, sent=0):
    limit_log(monkeypatch, -1, sent, half=False)


def half_take_answer(monkeypatch, sent=0):
    limit_log(monkeypatch, -1, sent, half=True)


BREAKAGES = (break_fork, exit_silently, truncate_answer, truncate_frame,
             refuse_answer, half_take_answer)
BREAKAGE_IDS = ("fork-fails", "worker-exits-early", "answer-truncated", "frame-truncated",
                "answer-refused", "answer-half-taken")


@pytest.mark.parametrize("run", RUNS, ids=RUNS)
@pytest.mark.parametrize("breakage", BREAKAGES, ids=BREAKAGE_IDS)
def test_this_process_does_the_workers_tasks_when_it_has_no_answer(
        monkeypatch, tasks, run, breakage):
    use_worker(monkeypatch, False)
    alone = RUNS[run]()
    use_worker(monkeypatch, True)
    breakage(monkeypatch)
    with hang_guard():
        assert RUNS[run]() == alone
    given, here = tasks
    assert given and here == given
    assert_no_child_left()


@pytest.mark.parametrize("breakage", BREAKAGES[1:], ids=BREAKAGE_IDS[1:])
@pytest.mark.parametrize("sent", (0, 1, 3, 4))
def test_a_stream_cut_short_costs_only_the_answers_it_lacks(monkeypatch, breakage, sent):
    # the first `sent` answers come from the worker, and this process
    # computes each later one once
    here = []
    parent = os.getpid()

    def task(i):
        def run():
            if os.getpid() == parent:
                here.append(i)
            return [i] * 10_000
        return run

    breakage(monkeypatch, sent)
    with pentagon._worker._forked([task(i) for i in range(4)]) as answers:
        assert list(answers) == [[i] * 10_000 for i in range(4)]
    assert here == list(range(sent, 4))
    assert_no_child_left()


@pytest.mark.parametrize("breakage", BREAKAGES[1:], ids=BREAKAGE_IDS[1:])
@pytest.mark.parametrize("sent", (1, 5))
def test_a_table_cut_short_computes_here_only_the_blocks_that_did_not_arrive(
        monkeypatch, tasks, breakage, sent):
    use_worker(monkeypatch, False)
    alone = RUNS["partitions"]()
    use_worker(monkeypatch, True)
    breakage(monkeypatch, sent)
    with hang_guard():
        assert RUNS["partitions"]() == alone
    given, here = tasks
    assert len(given) == 25 and here == given[sent:]
    assert_no_child_left()


@pytest.mark.parametrize("split_from, sizes", (
    # blocks of a // 3 entries: [3, 4), [4, 5), [5, 6), [6, 8), [8, 10), ...
    (3, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 16, 17, 63, 64, 100, 257)),
    # a // 3 up to 768, then 256: [700, 933), [933, 1189), ...
    (700, (699, 700, 701, 932, 933, 934, 1188, 1189, 2000)),
    # the default: 256 up to 4096, then a // 16
    (1500, (1499, 1500, 1501, 1755, 1756, 4999, 5000, 10000)),
))
def test_the_split_gives_the_one_process_values_across_block_edges(
        monkeypatch, tasks, split_from, sizes):
    use_worker(monkeypatch, False)
    alone = [partitions_recurrence(n) for n in sizes]
    use_worker(monkeypatch, True)
    monkeypatch.setattr(pentagon.partitions, "_SPLIT_FROM", split_from)
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    with hang_guard():
        assert [partitions_recurrence(n) for n in sizes] == alone
    given, here = tasks
    assert given and here == []
    assert len(forks) == sum(n >= split_from for n in sizes)  # one per table
    assert_no_child_left()


@pytest.mark.parametrize("how", ("refused", "cut-short"))
@pytest.mark.parametrize("taken", (0, 1, 5))
def test_a_log_that_takes_no_more_frames_leaves_the_later_blocks_here(
        monkeypatch, tasks, how, taken):
    # the table's log, the first of its two, takes `taken` frames, then
    # refuses the next or takes only half of it: the worker never sees
    # whole the values the later blocks read, so this process sends it
    # no more and computes those blocks without awaiting them
    here = []
    far_sums = pentagon.partitions._far_sums
    parent = os.getpid()

    def recorded_far_sums(q, log, terms, a, b):
        if os.getpid() == parent:
            here.append((a, b))
        return far_sums(q, log, terms, a, b)

    use_worker(monkeypatch, False)
    alone = RUNS["partitions"]()
    use_worker(monkeypatch, True)
    logs = limit_log(monkeypatch, 0, taken, half=how == "cut-short")
    monkeypatch.setattr(pentagon.partitions, "_far_sums", recorded_far_sums)
    with hang_guard():
        assert RUNS["partitions"]() == alone
    given, _ = tasks
    assert len(logs) == 2 and len(given) == 25
    assert here == [task.args[-2:] for task in given[taken:]]
    assert_no_child_left()


def test_a_reader_stops_awaiting_a_log_whose_writer_is_gone():
    # the reader closes its own end of the bell before it waits, so once
    # no writer is left the wait ends, as a worker's does when this
    # process dies, rather than block for ever
    with pentagon._worker._Log() as log:
        with pytest.raises(EOFError, match="^the log has no writer left$"):
            log.receive()


def test_ctrl_c_while_awaiting_far_sums_kills_the_worker(monkeypatch):
    # the worker stalls, so this process waits on the answer log for the first
    # far block until a real signal interrupts the read
    far_sums = pentagon.partitions._far_sums
    parent = os.getpid()

    def stalled(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return far_sums(*args)

    monkeypatch.setattr(pentagon.partitions, "_far_sums", stalled)
    use_worker(monkeypatch, True)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt), alarm(1.0, KeyboardInterrupt):
        RUNS["partitions"]()
    assert time.monotonic() - start < 30
    assert_no_child_left()
