"""One forked worker for the telescope and verify runs worth a second CPU."""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from marshal import dumps, loads

# Kernel updates from which a run forks a worker. A fork, pipe, kill and
# reap cost about 3 ms. On a 2-vCPU Xeon (Python 3.11.7, medians of seven
# or nine alternating best-of-five calls) a telescope run took 1.5x the
# serial time at 65k updates (order 500), 0.9-1.2x at 150k-210k (800-900)
# and 0.7-0.9x at 260k-320k (1000-1100); a verify run (order^2/4 updates)
# 1.3x at 62k (500), 1.0x at 120k-160k (700-800), 0.9x at 200k-320k.
_WORKER_UPDATES = 200_000


def _use_worker(updates: int) -> bool:
    """Whether a run of ``updates`` kernel updates should fork a worker.

    Forking a process that runs other threads can copy a lock another
    thread holds (and warns from Python 3.12), so only a single-threaded
    process with a second CPU forks.
    """
    if (updates < _WORKER_UPDATES or not hasattr(os, "fork")
            or threading.active_count() != 1):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


@contextmanager
def _forked(task: Callable[[], object]) -> Iterator[Callable[[], object]]:
    """Start ``task()`` in a forked worker; yield a function for its answer.

    The worker writes the answer to a pipe with ``marshal`` and leaves
    with ``os._exit``; the function reads the pipe to its end. If the
    fork failed, or the answer is missing or cut short, the function
    computes ``task()`` in this process instead. However the block
    returns or raises, the worker is killed and reaped first.
    """
    read_end, write_end = os.pipe()

    def answer() -> object:
        with open(read_end, "rb", closefd=False) as pipe:
            data = pipe.read()
        try:
            return loads(data)
        except EOFError:  # what any cut-short answer raises, b"" too
            return task()

    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(dumps(task()))
        finally:
            os._exit(0)
    try:
        os.close(write_end)
        yield answer
    finally:
        os.close(read_end)
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
