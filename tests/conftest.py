"""Fixtures and worker helpers shared by the test modules."""

import dataclasses
import os
import signal
from contextlib import contextmanager

import pytest

import pentagon.partitions
import pentagon.series
import pentagon.telescope
import pentagon.verify


@pytest.fixture
def broken_reduce_step(monkeypatch):
    """Make reduce_step hand back a next tail whose base is off by one."""
    reduce_step = pentagon.telescope.reduce_step

    def off_by_one(t):
        record, nxt = reduce_step(t)
        return record, dataclasses.replace(nxt, base=nxt.base + 1)

    monkeypatch.setattr(pentagon.telescope, "reduce_step", off_by_one)


def use_worker(monkeypatch, choice: bool) -> None:
    """Make every telescope and partitions run fork a worker (True) or
    stay in this process (False), whatever its size."""
    for module in (pentagon.partitions, pentagon.telescope):
        monkeypatch.setattr(module, "_use_worker", lambda updates: choice)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def alarm(seconds, error):
    """Raise ``error`` in this process if the block is still running
    after ``seconds``: a real signal, which interrupts a blocking read."""
    def expire(signum, frame):
        raise error
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def hang_guard():
    # a transport that deadlocks fails here in a minute, not at CI's timeout
    return alarm(60, TimeoutError("the run did not finish within 60 s"))


@pytest.fixture
def one_process(monkeypatch):
    """Keep every telescope and partitions run in this process, so spies
    see all of its work: no run forks a worker for its later stages or
    its far sums."""
    use_worker(monkeypatch, False)


@pytest.fixture
def division_updates(monkeypatch):
    """Count the work of every ``_div_binomial_inplace`` call the package
    makes: one entry per call, the len(coeffs) - start coefficients it
    updates (0 when start is past the top). Counts, not timings, so a
    budget on them holds on any host."""
    updates = []
    divide = pentagon.series._div_binomial_inplace

    def counted(coeffs, k, start=None):
        updates.append(max(0, len(coeffs) - (k if start is None else start)))
        divide(coeffs, k, start)

    for module in (pentagon.partitions, pentagon.telescope, pentagon.verify):
        monkeypatch.setattr(module, "_div_binomial_inplace", counted)
    return updates
