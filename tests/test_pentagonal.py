"""Exponent pairs, sign rule, and the closed form against the product oracle."""

import pytest
from hypothesis import given, strategies as st

from pentagon.pentagonal import (
    closed_form_series,
    g_minus,
    g_plus,
    pentagonal_pair,
    pentagonal_pairs_upto,
    pentagonal_terms_upto,
)
from pentagon.series import format_series, partial_product


def test_pair_examples():
    p1 = pentagonal_pair(1)
    assert (p1.g_minus, p1.g_plus, p1.sign) == (1, 2, -1)
    p3 = pentagonal_pair(3)
    assert (p3.g_minus, p3.g_plus, p3.sign) == (12, 15, -1)
    p5 = pentagonal_pair(5)
    assert (p5.g_minus, p5.g_plus, p5.sign) == (35, 40, -1)
    p4 = pentagonal_pair(4)
    assert (p4.g_minus, p4.g_plus, p4.sign) == (22, 26, 1)


def test_pair_rejects_index_zero():
    with pytest.raises(ValueError):
        pentagonal_pair(0)


@given(st.integers(1, 10_000))
def test_pair_gap_invariants(n):
    pair = pentagonal_pair(n)
    assert pair.g_plus - pair.g_minus == n
    assert g_minus(n + 1) - pair.g_plus == 2 * n + 1
    assert pair.sign == (-1) ** n


def test_exponent_sequence_1_5_12_22_35_51():
    assert [g_minus(n) for n in range(1, 7)] == [1, 5, 12, 22, 35, 51]
    assert [g_plus(n) for n in range(1, 7)] == [2, 7, 15, 26, 40, 57]


def test_terms_upto_examples():
    assert pentagonal_terms_upto(0) == [(0, 1)]
    assert pentagonal_terms_upto(7) == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1)]
    assert pentagonal_terms_upto(26)[-2:] == [(22, 1), (26, 1)]


@pytest.mark.parametrize("function, args, message", (
    (pentagonal_terms_upto, (3.0,), "order must be an int, got 3.0"),
    (pentagonal_terms_upto, (True,), "order must be an int, got True"),
    (pentagonal_pair, (2.0,), "n must be an int, got 2.0"),
    (pentagonal_pair, (True,), "n must be an int, got True"),
    (pentagonal_pair, (0,), "n must be >= 1, got 0"),
    (pentagonal_terms_upto, (-1,), "order must be >= 0, got -1"),
    # each used to yield the first pair
    (pentagonal_pairs_upto, (2.5,), "limit must be an int, got 2.5"),
    (pentagonal_pairs_upto, (True,), "limit must be an int, got True"),
), ids=lambda value: value.__name__ if callable(value) else None)
def test_entry_points_reject_non_int_and_out_of_range_arguments(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


@given(st.integers(0, 3000))
def test_terms_strictly_ascending_with_unit_signs(order):
    terms = pentagonal_terms_upto(order)
    exponents = [e for e, _ in terms]
    assert exponents == sorted(set(exponents))
    assert all(s in (-1, 1) for _, s in terms)
    assert terms[0] == (0, 1)


def test_pair_members_share_their_sign():
    terms = dict(pentagonal_terms_upto(2000))
    for pair in pentagonal_pairs_upto(2000):
        assert terms[pair.g_minus] == pair.sign
        if pair.g_plus <= 2000:
            assert terms[pair.g_plus] == pair.sign


def test_closed_form_examples():
    assert format_series(closed_form_series(4)) == "1 - x - x^2"
    assert format_series(closed_form_series(12)) == "1 - x - x^2 + x^5 + x^7 - x^12"
    assert closed_form_series(51)[51] == 1


def test_closed_form_coefficients_are_unit_or_zero():
    series = closed_form_series(400)
    assert set(series.coeffs) == {-1, 0, 1}


def test_support_is_exactly_pentagonal():
    order = 500
    series = closed_form_series(order)
    support = {e for e, _ in series.nonzero_terms()}
    expected = {0}
    for pair in pentagonal_pairs_upto(order):
        expected.add(pair.g_minus)
        if pair.g_plus <= order:
            expected.add(pair.g_plus)
    assert support == expected


def test_closed_form_equals_product_small_orders():
    for order in range(1, 121):
        assert closed_form_series(order).coeffs == partial_product(order, order).coeffs


@given(st.integers(1, 700))
def test_closed_form_equals_product_sampled(order):
    assert closed_form_series(order).coeffs == partial_product(order, order).coeffs
