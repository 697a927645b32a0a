"""Fixtures shared by the test modules."""

import dataclasses

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


@pytest.fixture
def one_process(monkeypatch):
    """Keep every telescope, verify and partitions run in this process, so
    spies see all of its work: no run forks a worker for its later
    stages, the far end of its division cascade or its far sums."""
    for module in (pentagon.partitions, pentagon.telescope, pentagon.verify):
        monkeypatch.setattr(module, "_use_worker", lambda updates: False)


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
