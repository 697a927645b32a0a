"""Partition counts: recurrence, DP oracle, enumeration, reciprocal series."""

import errno
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

import pentagon.partitions
from pentagon.partitions import (
    ENUMERATION_LIMIT,
    PartitionTable,
    partitions_enumerate,
    partitions_oracle_dp,
    partitions_recurrence,
    reciprocal_series,
)
from pentagon.pentagonal import (
    closed_form_series,
    g_minus,
    g_plus,
    pentagonal_terms_upto,
)
from pentagon.series import mul, one


def test_reciprocal_series_examples():
    assert reciprocal_series(0).coeffs == (1,)
    assert reciprocal_series(5).coeffs == (1, 1, 2, 3, 5, 7)
    assert reciprocal_series(10)[10] == 42


@given(st.integers(0, 250))
@settings(max_examples=30, deadline=None)
def test_reciprocal_times_closed_form_is_one(order):
    product = mul(closed_form_series(order), reciprocal_series(order))
    assert product.coeffs == one(order).coeffs


def test_recurrence_examples():
    assert partitions_recurrence(0).values == (1,)
    assert partitions_recurrence(5)[5] == 7
    assert partitions_recurrence(50)[50] == 204226


@pytest.mark.parametrize("index, error, message", (
    (-1, IndexError, "n = -1 is outside 0..5"),
    (6, IndexError, "n = 6 is outside 0..5"),
    (1.0, TypeError, "n must be an int in 0..5, got 1.0"),
    (True, TypeError, "n must be an int in 0..5, got True"),
    (slice(1, 3), TypeError, r"n must be an int in 0..5, got slice\(1, 3, None\)"),
))
def test_table_rejects_indices_outside_0_to_max_n(index, error, message):
    table = partitions_recurrence(5)
    with pytest.raises(error, match=f"^{message}$"):
        table[index]
    assert list(table) == [1, 1, 2, 3, 5, 7]


def test_recurrence_rejects_negative():
    with pytest.raises(ValueError, match="^n_max must be >= 0, got -1$"):
        partitions_recurrence(-1)
    with pytest.raises(ValueError, match="^n_max must be >= 0, got -2$"):
        partitions_oracle_dp(-2)


def test_dp_examples():
    table = partitions_oracle_dp(10)
    assert table[1] == 1
    assert table[5] == 7
    assert table[10] == 42


def test_enumerate_examples():
    assert partitions_enumerate(0) == 1
    assert partitions_enumerate(4) == 5
    assert partitions_enumerate(5) == 7


def test_enumerate_guard():
    with pytest.raises(ValueError):
        partitions_enumerate(ENUMERATION_LIMIT + 1)
    with pytest.raises(ValueError):
        partitions_enumerate(-1)


def test_recurrence_agrees_with_dp():
    for n in (600, 10000):
        assert partitions_recurrence(n).values == partitions_oracle_dp(n).values


def knapsack_ascending(n_max: int) -> tuple[int, ...]:
    """1 / prod_(k<=n_max) (1 - x^k), dividing by the smallest part first,
    one coefficient at a time: q_i = a_i + q_(i-k) for every i >= k."""
    values = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        for i in range(k, n_max + 1):
            values[i] += values[i - k]
    return tuple(values)


def test_dp_matches_ascending_knapsack_for_every_small_n_and_at_2000():
    reference = knapsack_ascending(300)
    for n in range(301):
        assert partitions_oracle_dp(n).values == reference[:n + 1], n
    assert partitions_oracle_dp(2000).values == knapsack_ascending(2000)


@given(st.integers(301, 1500))
@settings(max_examples=15, deadline=None)
def test_dp_matches_ascending_knapsack_sampled(n):
    assert partitions_oracle_dp(n).values == knapsack_ascending(n)


@pytest.mark.parametrize("n_max", (0, 1, 3, 4, 300))
def test_dp_divides_twice_per_durfee_square_from_s(monkeypatch, n_max):
    # side s: the list is cut to the n_max - s^2 + 1 entries from x^(s^2)
    # and divided twice by (1 - x^s), for s = 1..isqrt(n_max)
    calls = []
    original = pentagon.partitions._div_binomial_inplace

    def recorded(coeffs, k, *args):
        calls.append((len(coeffs), k, *args))
        original(coeffs, k, *args)

    monkeypatch.setattr(pentagon.partitions, "_div_binomial_inplace", recorded)
    partitions_oracle_dp(n_max)
    sides = range(1, math.isqrt(n_max) + 1)
    assert calls == [(n_max - s * s + 1, s, s) for s in sides for _ in range(2)]


def test_dp_work_budget(monkeypatch, division_updates):
    # side s updates n - s^2 + 1 - s entries twice and adds n - s^2 + 1
    # into the total: 2 * (44 * 2001 - 29370 - 990) and 44 * 2001 - 29370
    # for s <= 44 = isqrt(2000), where the knapsack updated 1,000,000
    additions = []
    add = pentagon.partitions._int_add

    def counted(a, b):
        additions.append(1)
        return add(a, b)

    monkeypatch.setattr(pentagon.partitions, "_int_add", counted)
    partitions_oracle_dp(2000)
    assert len(division_updates) == 88
    assert sum(division_updates) == 115_368
    assert len(additions) == 58_674


def test_recurrence_read_budget(monkeypatch, one_process):
    # each offset e is read once for every m = e..n: 10001 - e reads at
    # n = 10000 over the 162 pentagonal offsets, where a dense division
    # by the closed form would read about n^2/2 = 5 * 10^7
    reads = []
    original = pentagon.partitions._div_sparse

    def counted(values, terms):
        values, terms = list(values), list(terms)
        reads.extend(max(0, len(values) - e) for e, _ in terms)
        return original(values, terms)

    monkeypatch.setattr(pentagon.partitions, "_div_sparse", counted)
    partitions_recurrence(10000)
    assert len(reads) == 162
    assert sum(reads) == 1_078_839


def test_rounds_read_each_offset_once_between_far_sums_and_kernel(monkeypatch):
    # the worker's path, with every fork failing, so this process does
    # the far sums too: a first block to 2500 and rounds to 5000 and to
    # 10000 read the same 1,078,839 entries as the one division, each
    # (m, e) once, in a far-sum pass or in the kernel
    def no_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    passes, reads = [], []
    add_shifted = pentagon.partitions._add_shifted
    divide = pentagon.partitions._div_sparse

    def counted_pass(out, e, c, a):
        passes.append(len(out) - e)
        add_shifted(out, e, c, a)

    def counted_division(values, terms):
        values, terms = list(values), list(terms)
        reads.extend(max(0, len(values) - e) for e, _ in terms)
        return divide(values, terms)

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(pentagon.partitions, "_use_worker", lambda updates: True)
    monkeypatch.setattr(pentagon.partitions, "_add_shifted", counted_pass)
    monkeypatch.setattr(pentagon.partitions, "_div_sparse", counted_division)
    values = partitions_recurrence(10000).values
    assert len(reads) == 3 * 162
    assert sum(passes) + sum(reads) == 1_078_839
    assert values == partitions_oracle_dp(10000).values


@pytest.mark.parametrize("function", (partitions_recurrence, reciprocal_series),
                         ids=lambda function: function.__name__)
def test_recurrence_is_one_sparse_division_by_the_closed_form(monkeypatch, one_process,
                                                            function):
    # both entry points divide 1 by the closed form through the series
    # kernel, once, with the terms above x^0 as computed
    calls = []
    original = pentagon.partitions._div_sparse

    def recorded(values, terms):
        terms = list(terms)
        calls.append(terms)
        return original(values, terms)

    monkeypatch.setattr(pentagon.partitions, "_div_sparse", recorded)
    values = tuple(function(300))
    assert calls == [pentagonal_terms_upto(300)[1:]]
    assert values == partitions_oracle_dp(300).values


@pytest.mark.parametrize("function, args, message", (
    (partitions_oracle_dp, (True,), "n_max must be an int, got True"),
    (partitions_oracle_dp, (2.0,), "n_max must be an int, got 2.0"),
    (partitions_recurrence, (True,), "n_max must be an int, got True"),
    (partitions_recurrence, (2.0,), "n_max must be an int, got 2.0"),
    (partitions_enumerate, (True,), "n must be an int, got True"),
    (partitions_enumerate, (2.5,), "n must be an int, got 2.5"),
    (partitions_enumerate, (-1,), "n must be >= 0, got -1"),
    (reciprocal_series, (2.0,), "order must be an int, got 2.0"),
), ids=lambda value: value.__name__ if callable(value) else None)
def test_entry_points_reject_non_int_and_out_of_range_arguments(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


def test_recurrence_and_dp_agree_with_enumeration():
    table = partitions_recurrence(28)
    dp = partitions_oracle_dp(28)
    for n in range(29):
        expected = partitions_enumerate(n)
        assert table[n] == expected
        assert dp[n] == expected
    assert partitions_recurrence(40)[40] == partitions_enumerate(40) == 37338


def test_reciprocal_matches_table():
    order = 120
    series = reciprocal_series(order)
    table = partitions_recurrence(order)
    assert series.coeffs == table.values


def test_table_monotone_and_positive():
    values = partitions_recurrence(2000).values
    assert values[0] == 1
    assert all(values[n] >= values[n - 1] > 0 for n in range(1, 2001))


def test_table_validation_and_access():
    table = PartitionTable((1, 1, 2))
    assert table.max_n == 2
    assert len(table) == 3
    assert table[2] == 2
    with pytest.raises(IndexError):
        table[3]


@pytest.mark.parametrize("values, message", (
    ((), r"values must hold at least p\(0\), got none"),
    ((1, 1.5), r"values\[1\] must be an int, got 1.5"),
    ((1, True, 2), r"values\[1\] must be an int, got True"),
    ((1, 1, "2"), r"values\[2\] must be an int, got '2'"),
    ([1, 1], r"values must be a tuple, got list"),
))
def test_table_rejects_no_entries_and_entries_that_are_not_ints(values, message):
    # an empty table used to have max_n == -1, and (1, 1.5)[1] returned 1.5
    with pytest.raises(ValueError, match=f"^{message}$"):
        PartitionTable(values)


def test_recurrence_offsets_are_sparse_and_sorted():
    # p(n) reads p(n - e) only at the closed form's exponents e above 0
    offsets = [g for g, _ in pentagonal_terms_upto(100)[1:]]
    assert offsets == sorted(offsets)
    expected = []
    k = 1
    while g_minus(k) <= 100:
        expected.append(g_minus(k))
        if g_plus(k) <= 100:
            expected.append(g_plus(k))
        k += 1
    assert sorted(expected) == offsets
    assert len(offsets) == 16


def test_recurrence_signs_alternate_in_pairs():
    # the divisor's terms carry (-1)^k, so p(n) adds the terms of pair k
    # for odd k and subtracts them for even k
    by_offset = dict(pentagonal_terms_upto(300)[1:])
    k = 1
    while g_minus(k) <= 300:
        expected = -1 if k % 2 else 1
        assert by_offset[g_minus(k)] == expected
        if g_plus(k) <= 300:
            assert by_offset[g_plus(k)] == expected
        k += 1


def test_support_size_grows_like_sqrt():
    for n in (100, 400, 1600, 6400):
        count = len(pentagonal_terms_upto(n)[1:])
        # both pentagonal branches contribute about sqrt(2n/3) offsets each
        estimate = 2 * (2 * n / 3) ** 0.5
        assert estimate - 4 <= count <= estimate + 4


@given(st.integers(0, 320))
@settings(max_examples=30, deadline=None)
def test_recurrence_dp_agree_sampled(n):
    values = partitions_recurrence(n).values
    assert values == partitions_oracle_dp(n).values
    assert reciprocal_series(n).coeffs == values
