"""Fixtures shared by the telescope and CLI tests."""

import dataclasses

import pytest

import pentagon.telescope


@pytest.fixture
def broken_reduce_step(monkeypatch):
    """Make reduce_step hand back a next tail whose base is off by one."""
    reduce_step = pentagon.telescope.reduce_step

    def off_by_one(t):
        record, nxt = reduce_step(t)
        return record, dataclasses.replace(nxt, base=nxt.base + 1)

    monkeypatch.setattr(pentagon.telescope, "reduce_step", off_by_one)
