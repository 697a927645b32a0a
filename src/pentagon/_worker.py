"""One forked worker for the telescope and partitions runs worth a second
CPU.

A run hands ``_forked`` a list of tasks. The worker, a copy of the run
made with ``os.fork()``, computes them in turn and sends each answer
through a ``_Log`` as soon as it has it, while this process goes on
with its own share: a telescope run sends one task, a partition table
one per block of its far sums, and sends the worker the values they
read through a second ``_Log``. A log never waits on its reader, so the
worker can run any number of answers ahead. Any answer that does not
arrive whole is computed here instead.
"""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, suppress
from marshal import dumps, loads

# Kernel updates from which a run forks a worker; a fork, kill and reap
# cost about 3 ms. On a 2-vCPU Xeon (Python 3.11.7, alternating
# calls) a telescope run took 1.5x its serial time at 65k updates,
# 0.9-1.2x at 150k-210k and 0.7-0.9x at 260k-320k; a partition table,
# one update per term read, 1.00-1.12x at 272k (n = 4000), 0.93-0.98x
# at 380k (5000), from where it forks, and 0.85-0.91x at 500k (6000).
_WORKER_UPDATES = 200_000
# bytes of the length that precedes each frame in a log
_HEADER = 8


def _use_worker(updates: int) -> bool:
    """Whether a run of ``updates`` kernel updates should fork a worker.

    A worker needs ``os.fork`` and, for its logs, ``os.memfd_create``.
    Forking a process that runs other threads can copy a lock another
    thread holds (and warns from Python 3.12), so only a single-threaded
    process with a second CPU forks.
    """
    if (updates < _WORKER_UPDATES or not hasattr(os, "fork")
            or not hasattr(os, "memfd_create") or threading.active_count() != 1):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


@contextmanager
def _forked(tasks: Sequence[Callable[[], object]]) -> Iterator[Iterator[object]]:
    """Run ``tasks`` in turn in a forked worker; yield an iterator over their answers.

    The worker sends each answer through a ``_Log`` as soon as it has it,
    and leaves with ``os._exit`` once it is done or the log takes no
    more. The iterator receives one frame per answer, so a caller can
    use the first answers while the worker computes the later ones. If
    the fork failed, or the stream ends or is cut short before some
    answer, the iterator computes that task and every later one in this
    process instead. However the block returns or raises, the worker is
    killed and reaped first.
    """
    with _Log() as log:
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            try:
                for task in tasks:
                    if not log.send(task()):
                        break
            finally:
                os._exit(0)

        def answers() -> Iterator[object]:
            for i, task in enumerate(tasks):
                try:
                    answer = log.receive()
                except EOFError:  # no more answers: do the rest here
                    yield from (task() for task in tasks[i:])
                    return
                yield answer

        try:
            yield answers()
        finally:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class _Log:
    """Values one process sends another, in an in-memory file
    (``os.memfd_create``), so that sending never waits on the reader.

    ``send`` appends a value as one frame, its length in ``_HEADER``
    bytes and then its ``marshal`` bytes, or returns False from the
    first frame the file does not take whole on; then it rings a bell, a
    byte on a pipe that is dropped if the pipe is full. ``receive``
    reads the next frame whole and ``loads`` it: ``marshal.load`` on the
    file would read it one small piece at a time. ``read``, short of
    bytes, closes the reader's end of the bell and waits for a ring, and
    raises EOFError when the bell has no writer left, as once the writer
    is gone; a frame whose marshal bytes are cut short raises EOFError
    in ``loads``.
    """

    def __init__(self) -> None:
        self.fd = os.memfd_create("pentagon-log")
        self.wake, self.bell = os.pipe()
        os.set_blocking(self.bell, False)
        self.whole = True
        self.offset = 0

    def __enter__(self) -> _Log:
        return self

    def __exit__(self, *exc: object) -> None:
        for fd in (self.fd, self.wake, self.bell):
            if fd is not None:
                os.close(fd)

    def send(self, value: object) -> bool:
        if self.whole:
            data = dumps(value)
            frame = len(data).to_bytes(_HEADER, "little") + data
            try:
                self.whole = os.write(self.fd, frame) == len(frame)
            except OSError:
                self.whole = False
            with suppress(BlockingIOError):
                os.write(self.bell, b"\0")
        return self.whole

    def read(self, size: int) -> bytes:
        data = b""
        while len(data) < size:
            more = os.pread(self.fd, size - len(data), self.offset + len(data))
            data += more
            if not more:
                if self.bell is not None:
                    os.close(self.bell)
                    self.bell = None
                if not os.read(self.wake, 1 << 16):
                    raise EOFError("the log has no writer left")
        self.offset += size
        return data

    def receive(self) -> object:
        return loads(self.read(int.from_bytes(self.read(_HEADER), "little")))
