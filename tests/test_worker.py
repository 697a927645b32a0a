"""The forked worker that telescope and verify share: when it is used, what
it answers, and that no run leaves it behind however the run ends."""

import errno
import marshal
import os
import threading
import time

import pytest

import pentagon._worker
import pentagon.telescope
import pentagon.verify
from pentagon.telescope import run_telescope
from pentagon.verify import full_verification

# Both runs are above the worker's break-even.
RUNS = {
    "verify": lambda: full_verification(1500, 8),
    "telescope": lambda: run_telescope(1, 1500),
}


def use_worker(monkeypatch, choice: bool) -> None:
    for module in (pentagon.telescope, pentagon.verify):
        monkeypatch.setattr(module, "_use_worker", lambda updates: choice)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def parent_tasks(monkeypatch):
    """One entry each time this process computes a worker's task itself;
    a worker's own calls land in its copy of the list."""
    calls = []
    parent = os.getpid()
    forked = pentagon._worker._forked

    def recorded(task):
        def counted():
            if os.getpid() == parent:
                calls.append(task)
            return task()
        return forked(counted)

    for module in (pentagon.telescope, pentagon.verify):
        monkeypatch.setattr(module, "_forked", recorded)
    return calls


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


def test_the_answer_crosses_the_pipe_whole():
    # a list larger than a pipe's buffer, with integers of any size
    value = [(-7) ** (i % 100) for i in range(20_000)]
    with pentagon._worker._forked(lambda: value) as answer:
        assert answer() == value
    assert_no_child_left()


def test_a_caller_need_not_wait_for_the_answer():
    start = time.monotonic()
    with pentagon._worker._forked(lambda: time.sleep(60)):
        pass
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.parametrize("run", RUNS, ids=RUNS)
def test_a_worker_answers_and_is_gone(monkeypatch, parent_tasks, run):
    use_worker(monkeypatch, False)
    alone = RUNS[run]()
    use_worker(monkeypatch, True)
    assert RUNS[run]() == alone
    assert parent_tasks == []
    assert_no_child_left()


def break_fork(monkeypatch):
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)


def exit_silently(monkeypatch):
    # dumps runs only in the worker, once its task is done
    monkeypatch.setattr(pentagon._worker, "dumps", lambda value: os._exit(0))


def truncate_answer(monkeypatch):
    monkeypatch.setattr(pentagon._worker, "dumps",
                        lambda value: marshal.dumps(value)[:-1])


@pytest.mark.parametrize("run", RUNS, ids=RUNS)
@pytest.mark.parametrize("breakage", (break_fork, exit_silently, truncate_answer),
                         ids=("fork-fails", "worker-exits-silently",
                              "answer-truncated"))
def test_this_process_does_the_workers_task_when_it_has_no_answer(
        monkeypatch, parent_tasks, run, breakage):
    use_worker(monkeypatch, False)
    alone = RUNS[run]()
    use_worker(monkeypatch, True)
    breakage(monkeypatch)
    assert RUNS[run]() == alone
    assert len(parent_tasks) == 1
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
