"""One forked worker for the telescope, verify and partitions runs worth a
second CPU.

A run hands ``_forked`` a list of tasks. The worker, a copy of the run
made with ``os.fork()``, computes them in turn and streams each answer
back through a pipe as soon as it has it, while this process goes on
with its own share: a telescope or verify run sends one task, a
partition table one per block of its far sums, reading the values they
need from a ``_Log`` this process appends to. Any answer that does not
arrive whole is computed here instead.
"""

from __future__ import annotations

import os
import signal
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager, suppress
from marshal import dumps, loads
from typing import BinaryIO

try:  # Linux lets a pipe hold more than 64 KiB
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:
    F_SETPIPE_SZ = None

# Kernel updates from which a run forks a worker; a fork, pipe, kill and
# reap cost about 3 ms. On a 2-vCPU Xeon (Python 3.11.7, alternating
# calls) a telescope run took 1.5x its serial time at 65k updates,
# 0.9-1.2x at 150k-210k and 0.7-0.9x at 260k-320k; a verify run 1.3x at
# 62k, 1.0x at 120k-160k and 0.9x at 200k-320k; a partition table, one
# update per term read, 1.00-1.12x at 272k (n = 4000), 0.93-0.98x at
# 380k (5000), from where it forks, and 0.85-0.91x at 500k (6000).
_WORKER_UPDATES = 200_000
# bytes of the length that precedes each answer on the pipe or frame in a log
_HEADER = 8
# bytes a worker's pipe holds, where the system allows, so that it can
# write a partition table's next blocks before this process reads them
_PIPE_BYTES = 1 << 20


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


def _receive(pipe: BinaryIO | _Log) -> object:
    """The next answer on ``pipe``, or frame in a log; EOFError if it is cut short.

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
    if F_SETPIPE_SZ is not None:
        with suppress(OSError):  # past the user's pipe limit: 64 KiB
            fcntl(write_end, F_SETPIPE_SZ, _PIPE_BYTES)
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


class _Log:
    """Values this process appends for a forked worker to read, in an
    in-memory file (``os.memfd_create``), so that appending never waits.

    ``publish`` appends a list's values not sent yet as one frame,
    framed as ``_forked``'s answers, or returns False from the first
    frame the file does not take whole on; then it rings a bell, a byte
    on a pipe that is dropped if the pipe is full. The worker's
    ``extend`` reads frames; ``read``, short of bytes, closes the
    worker's end of the bell and waits for a ring, and raises EOFError
    when the bell has no writer left, as once this process is gone.
    """

    def __init__(self, sent: int) -> None:
        self.fd = os.memfd_create("pentagon-log")
        self.wake, self.bell = os.pipe()
        os.set_blocking(self.bell, False)
        self.sent = sent
        self.offset = 0

    def __enter__(self) -> _Log:
        return self

    def __exit__(self, *exc: object) -> None:
        for fd in (self.fd, self.wake, self.bell):
            if fd is not None:
                os.close(fd)

    def publish(self, values: list[int]) -> bool:
        if self.sent < 0:
            return False
        data = dumps(values[self.sent:])
        frame = len(data).to_bytes(_HEADER, "little") + data
        try:
            whole = os.write(self.fd, frame) == len(frame)
        except OSError:
            whole = False
        self.sent = len(values) if whole else -1
        with suppress(BlockingIOError):
            os.write(self.bell, b"\0")
        return whole

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

    def extend(self, values: list[int], size: int) -> None:
        """Append published values to ``values`` until it holds ``size``."""
        while len(values) < size:
            values += _receive(self)
