"""One forked worker for the telescope, verify and partitions runs worth a
second CPU.

A run hands ``_forked`` a list of tasks. The worker, a copy of the run
made with ``os.fork()``, computes them in turn and streams each answer
back through a pipe as soon as it has it, while this process goes on
with its own share: a telescope or verify run sends one task, a
partitions round one per chunk of its far sums. Any answer that does
not arrive whole is computed here instead.
"""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from marshal import dumps, loads
from typing import BinaryIO

# Kernel updates from which a run forks a worker. A fork, pipe, kill and
# reap cost about 3 ms. On a 2-vCPU Xeon (Python 3.11.7, medians of seven
# or nine alternating best-of-five calls) a telescope run took 1.5x the
# serial time at 65k updates (order 500), 0.9-1.2x at 150k-210k (800-900)
# and 0.7-0.9x at 260k-320k (1000-1100); a verify run (order^2/4 updates)
# 1.3x at 62k (500), 1.0x at 120k-160k (700-800), 0.9x at 200k-320k.
# A partitions run counts one update per term read, n + 1 - e for each
# closed-form exponent e <= n, and forks only from n = 5000, where its
# rounds begin (medians of 21 alternating best-of-three calls): 0.99x
# at 380k (5000), 0.94x at 500k (6000) and 0.82-0.88x at 0.77M-1.42M
# (8000-12000); rounds from 4000 took 1.06x at 272k.
_WORKER_UPDATES = 200_000
# bytes of the length that precedes each answer on the pipe
_HEADER = 8


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


def _receive(pipe: BinaryIO) -> object:
    """The next answer on ``pipe``; EOFError if its frame is cut short.

    A frame cut short leaves a prefix of its little-endian length, which
    reads as no more than the length, or a strict prefix of the answer's
    marshal bytes, or nothing; ``loads`` raises EOFError on each.
    """
    header = pipe.read(_HEADER)
    return loads(pipe.read(int.from_bytes(header, "little")))


@contextmanager
def _forked(tasks: Sequence[Callable[[], object]]) -> Iterator[Iterator[object]]:
    """Run ``tasks`` in turn in a forked worker; yield an iterator over their answers.

    The worker writes each answer to a pipe as soon as it has it, framed
    as its length in ``_HEADER`` bytes and then its ``marshal`` bytes,
    and leaves with ``os._exit``. The iterator reads one frame per
    answer, so a caller can use the first answers while the worker
    computes the later ones. A frame goes through ``loads`` whole:
    ``marshal.load`` on the pipe would read it one small piece at a
    time. If the fork failed, or the stream ends or is cut short before
    some answer, the iterator computes that task and every later one in
    this process instead. However the block returns or raises, the
    worker is killed and reaped first.
    """
    read_end, write_end = os.pipe()
    pipe = open(read_end, "rb")
    try:
        pid = os.fork()
    except OSError:
        pid = None
    if pid == 0:
        try:
            pipe.close()
            with open(write_end, "wb") as out:
                for task in tasks:
                    data = dumps(task())
                    out.write(len(data).to_bytes(_HEADER, "little"))
                    out.write(data)
                    out.flush()
        finally:
            os._exit(0)

    def answers() -> Iterator[object]:
        for i, task in enumerate(tasks):
            try:
                answer = _receive(pipe)
            except EOFError:  # no more answers: do the rest here
                yield from (task() for task in tasks[i:])
                return
            yield answer

    try:
        os.close(write_end)
        yield answers()
    finally:
        pipe.close()
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
