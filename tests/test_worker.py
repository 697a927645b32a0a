"""The forked worker that telescope, verify and partitions share: when it
is used, what it answers, and that no run leaves it behind however the
run ends."""

import errno
import marshal
import os
import signal
import threading
import time

import pytest

import pentagon._worker
import pentagon.partitions
import pentagon.telescope
import pentagon.verify
from pentagon.partitions import partitions_recurrence
from pentagon.telescope import run_telescope
from pentagon.verify import full_verification

MODULES = (pentagon.partitions, pentagon.telescope, pentagon.verify)

# Each run is above the worker's break-even; the partition table at
# 10000 is a first block to 2500 and two rounds.
RUNS = {
    "verify": lambda: full_verification(1500, 8),
    "telescope": lambda: run_telescope(1, 1500),
    "partitions": lambda: partitions_recurrence(10000),
}


def use_worker(monkeypatch, choice: bool) -> None:
    for module in MODULES:
        monkeypatch.setattr(module, "_use_worker", lambda updates: choice)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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
    monkeypatch.delattr(os, "fork")
    assert not use(limit)


def test_the_answers_cross_the_pipe_whole_and_in_order():
    # lists larger than a pipe's buffer, with integers of any size
    values = [[(-7) ** (i % 100) + j for i in range(20_000)] for j in range(3)]
    with pentagon._worker._forked([lambda j=j: values[j] for j in range(3)]) as answers:
        assert list(answers) == values
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
    assert RUNS[run]() == alone
    given, here = tasks
    assert given and here == []
    assert_no_child_left()


def break_fork(monkeypatch, sent=0):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)


def stop_after(monkeypatch, sent, last):
    """The worker sends ``sent`` answers, then calls ``last`` with the
    next answer's marshal bytes and the pipe's write end; ``dumps`` runs
    only in the worker, once per task done."""
    pipes = []
    pipe = os.pipe

    def recorded_pipe():
        pipes.append(pipe())
        return pipes[-1]

    count = 0

    def dumps(value):
        nonlocal count
        count += 1
        data = marshal.dumps(value)
        return data if count <= sent else last(data, pipes[-1][1])

    monkeypatch.setattr(os, "pipe", recorded_pipe)
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


BREAKAGES = (break_fork, exit_silently, truncate_answer, truncate_frame)
BREAKAGE_IDS = ("fork-fails", "worker-exits-early", "answer-truncated", "frame-truncated")


@pytest.mark.parametrize("run", RUNS, ids=RUNS)
@pytest.mark.parametrize("breakage", BREAKAGES, ids=BREAKAGE_IDS)
def test_this_process_does_the_workers_tasks_when_it_has_no_answer(
        monkeypatch, tasks, run, breakage):
    use_worker(monkeypatch, False)
    alone = RUNS[run]()
    use_worker(monkeypatch, True)
    breakage(monkeypatch)
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


@pytest.mark.parametrize("first_block", (4, 2500))
def test_the_rounds_give_the_one_process_values_across_round_boundaries(
        monkeypatch, tasks, first_block):
    # with a first block of 4, windows of a few entries and chunks that
    # are empty; with 2500, rounds begin at 5000, and 9999 has one round
    # where 10000 has two
    sizes = ((0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 100, 257) if first_block == 4
             else (4999, 5000, 5001, 9999, 10000))
    use_worker(monkeypatch, False)
    alone = [partitions_recurrence(n) for n in sizes]
    use_worker(monkeypatch, True)
    monkeypatch.setattr(pentagon.partitions, "_FIRST_BLOCK", first_block)
    assert [partitions_recurrence(n) for n in sizes] == alone
    given, here = tasks
    assert given and here == []
    assert_no_child_left()


def test_ctrl_c_mid_cascade_kills_the_worker_rather_than_await_it(monkeypatch):
    divide = pentagon.verify._div_binomial_inplace
    build = pentagon.verify.product_range
    parent = os.getpid()

    def interrupted(coeffs, k, *args):
        if k == 100:
            raise KeyboardInterrupt
        divide(coeffs, k, *args)

    def stalled(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return build(*args)

    monkeypatch.setattr(pentagon.verify, "_div_binomial_inplace", interrupted)
    monkeypatch.setattr(pentagon.verify, "product_range", stalled)
    for worker in (False, True):
        use_worker(monkeypatch, worker)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            RUNS["verify"]()
        assert time.monotonic() - start < 30
        assert_no_child_left()


def test_ctrl_c_while_awaiting_far_sums_kills_the_worker(monkeypatch):
    # the worker stalls, so this process waits on the pipe for its
    # second chunk until a real signal interrupts the read
    far_sums = pentagon.partitions._far_sums
    parent = os.getpid()

    def stalled(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return far_sums(*args)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(pentagon.partitions, "_far_sums", stalled)
    use_worker(monkeypatch, True)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        start = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(KeyboardInterrupt):
            RUNS["partitions"]()
        assert time.monotonic() - start < 30
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert_no_child_left()
