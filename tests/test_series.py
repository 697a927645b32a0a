"""Ring arithmetic: frozen examples plus sampled algebraic laws."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from pentagon.series import (
    TruncatedSeries,
    _div_binomial_inplace,
    _mul_binomial_inplace,
    add,
    div_binomial,
    format_series,
    make_series,
    monomial,
    mul,
    mul_binomial,
    one,
    partial_product,
    product_range,
    series_from_json,
    sub,
    to_dense_json,
    to_sparse_json,
)


@st.composite
def series(draw, max_order=24, coeff_bound=999):
    order = draw(st.integers(min_value=0, max_value=max_order))
    coeffs = draw(st.lists(st.integers(-coeff_bound, coeff_bound),
                           min_size=order + 1, max_size=order + 1))
    return TruncatedSeries(order, tuple(coeffs))


def literal_mul_binomial(coeffs, k, c):
    """coeffs * (1 + c*x^k), truncated to len(coeffs), one entry at a time
    from the top, so each entry reads one below it that is not yet updated."""
    out = list(coeffs)
    for i in range(len(out) - 1, k - 1, -1):
        out[i] += c * out[i - k]
    return out


def literal_div_binomial(coeffs, k):
    """coeffs / (1 - x^k), truncated to len(coeffs): q_i = a_i + q_(i-k),
    one entry at a time from the bottom."""
    out = list(coeffs)
    for i in range(k, len(out)):
        out[i] += out[i - k]
    return out


def ascending_product_range(first, last, order):
    """prod of (1 - x^k) for k = first..last, smallest factor first."""
    product = one(order)
    for k in range(first, last + 1):
        product = mul_binomial(product, k, -1)
    return product.coeffs


@st.composite
def kernel_cases(draw):
    """A coefficient list of order 0..80 with entries up to 10^40, and a k
    from 1 to three past the order."""
    order = draw(st.integers(0, 80))
    coeffs = draw(st.lists(st.integers(-10**40, 10**40),
                           min_size=order + 1, max_size=order + 1))
    return coeffs, draw(st.integers(1, order + 3))


def test_make_series_pads_with_zeros():
    assert make_series([1], 3).coeffs == (1, 0, 0, 0)
    assert make_series([1, -1], 2).coeffs == (1, -1, 0)
    assert make_series([0, 0, 1], 5).coeffs == (0, 0, 1, 0, 0, 0)


def test_make_series_rejects_overflow_and_bad_order():
    with pytest.raises(ValueError):
        make_series([1, 2, 3], 1)
    with pytest.raises(ValueError):
        TruncatedSeries(-1, ())
    with pytest.raises(ValueError):
        TruncatedSeries(2, (1, 2))


@pytest.mark.parametrize("coeffs, bad", (([1.5, True], r"coeffs\[0\]"),
                                         ([1, True], r"coeffs\[1\]"),
                                         ((0, 0, "2"), r"coeffs\[2\]")))
def test_make_series_rejects_coefficients_that_are_not_ints(coeffs, bad):
    with pytest.raises(ValueError, match=bad):
        make_series(coeffs, 3)


@pytest.mark.parametrize("function, args, message", (
    (one, (2.0,), "order must be an int, got 2.0"),
    (one, (True,), "order must be an int, got True"),
    (make_series, ([1], True), "order must be an int, got True"),
    (make_series, ([1, 2], "3"), "order must be an int, got '3'"),
    (monomial, (1.0, 3), "exponent must be an int, got 1.0"),
    (monomial, (True, 3), "exponent must be an int, got True"),
    (monomial, (1, 3.0), "order must be an int, got 3.0"),
))
def test_constructors_reject_an_order_or_exponent_that_is_not_an_int(
        function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


@pytest.mark.parametrize("coeff", (0.5, True, "1"))
def test_monomial_rejects_a_coefficient_that_is_not_an_int(coeff):
    with pytest.raises(ValueError, match="coeff must be an int"):
        monomial(2, 3, coeff=coeff)


def test_series_is_immutable():
    s = make_series([1, -1], 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.order = 5


def test_add_sub_trivial():
    assert add(make_series([1, -1], 2), make_series([0, 1], 2)).coeffs == (1, 0, 0)
    a = make_series([1, -1], 3)
    assert sub(a, a).coeffs == (0, 0, 0, 0)
    assert add(make_series([1, -1, -1], 2), make_series([0, 0, 1], 2)).coeffs == (1, -1, 0)


def test_mixed_order_truncates_to_smaller():
    a = make_series([1, 2, 3, 4], 3)
    b = make_series([1, 1], 1)
    assert add(a, b).order == 1
    assert add(a, b).coeffs == (2, 3)
    assert mul(a, b).order == 1


def test_mul_examples():
    assert mul(make_series([1, -1], 2), make_series([1, 1], 2)).coeffs == (1, 0, -1)
    assert mul(make_series([1, -1], 3), make_series([1, 0, -1], 3)).coeffs == (1, -1, -1, 1)
    lhs = make_series([1, -1, -1, 1], 6)
    rhs = make_series([1, 0, 0, -1], 6)
    assert mul(lhs, rhs).coeffs == (1, -1, -1, 0, 1, 1, -1)


def test_mul_binomial_examples():
    assert mul_binomial(one(3), 1, -1).coeffs == (1, -1, 0, 0)
    assert mul_binomial(make_series([1, -1], 3), 2, -1).coeffs == (1, -1, -1, 1)
    assert mul_binomial(monomial(2, 6), 5, -1).coeffs == (0, 0, 1, 0, 0, 0, 0)


def test_mul_binomial_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        mul_binomial(one(3), 0, -1)


@pytest.mark.parametrize("function, args, message", (
    (mul_binomial, (one(3), 1, 0.5), "c must be an int, got 0.5"),
    (mul_binomial, (one(3), 1, True), "c must be an int, got True"),
    (mul_binomial, (one(3), 2.0, -1), "k must be an int, got 2.0"),
    (mul_binomial, (one(3), True, -1), "k must be an int, got True"),
    (div_binomial, (one(3), 2.0), "k must be an int, got 2.0"),
    (div_binomial, (one(3), True), "k must be an int, got True"),
    (product_range, (1.5, 3, 3), "first must be an int, got 1.5"),
    (product_range, (1, 3.0, 3), "last must be an int, got 3.0"),
    (product_range, (1, 3, True), "order must be an int, got True"),
    (partial_product, (2.0, 3), "m must be an int, got 2.0"),
), ids=lambda value: value.__name__ if callable(value) else None)
def test_binomial_wrappers_reject_arguments_that_are_not_ints(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


@given(kernel_cases(), st.one_of(st.sampled_from((-1, 1)),
                                 st.integers(-10**40, 10**40)))
def test_mul_binomial_kernel_matches_the_literal_loop(case, c):
    coeffs, k = case
    expected = literal_mul_binomial(coeffs, k, c)
    _mul_binomial_inplace(coeffs, k, c)
    assert coeffs == expected


@given(kernel_cases())
def test_div_binomial_kernel_matches_the_literal_loop(case):
    coeffs, k = case
    expected = literal_div_binomial(coeffs, k)
    _div_binomial_inplace(coeffs, k)
    assert coeffs == expected


@given(kernel_cases(), st.data())
def test_div_binomial_kernel_from_a_later_start_finishes_the_quotient(case, data):
    # with coeffs[:start] already the quotient's, the rest is divided from start
    coeffs, k = case
    expected = literal_div_binomial(coeffs, k)
    start = data.draw(st.integers(k, len(coeffs) + k))
    coeffs[:start] = expected[:start]
    _div_binomial_inplace(coeffs, k, start)
    assert coeffs == expected


@given(series(), st.integers(1, 12), st.integers(-3, 3))
def test_mul_binomial_matches_dense_mul(a, k, c):
    dense = monomial(k, a.order, c)
    expected = mul(a, add(one(a.order), dense))
    assert mul_binomial(a, k, c).coeffs == expected.coeffs


def test_div_binomial_examples():
    assert div_binomial(one(4), 1).coeffs == (1, 1, 1, 1, 1)
    assert div_binomial(make_series([1, -1], 4), 1).coeffs == (1, 0, 0, 0, 0)
    assert div_binomial(make_series([1, -1, -1, 1], 3), 2).coeffs == (1, -1, 0, 0)


@given(series(), st.integers(1, 12))
def test_div_binomial_inverts_mul_binomial(a, k):
    assert div_binomial(mul_binomial(a, k, -1), k).coeffs == a.coeffs
    assert mul_binomial(div_binomial(a, k), k, -1).coeffs == a.coeffs


@given(series(), series())
def test_mul_commutes(a, b):
    assert mul(a, b).coeffs == mul(b, a).coeffs


@given(series(max_order=12, coeff_bound=50),
       series(max_order=12, coeff_bound=50),
       series(max_order=12, coeff_bound=50))
def test_mul_associates_up_to_truncation(a, b, c):
    assert mul(mul(a, b), c).coeffs == mul(a, mul(b, c)).coeffs


@given(series(), series())
def test_add_sub_roundtrip(a, b):
    assert sub(add(a, b), b).coeffs == a.coeffs[: min(a.order, b.order) + 1]


def test_partial_product_examples():
    assert partial_product(1, 2).coeffs == (1, -1, 0)
    assert partial_product(3, 6).coeffs == (1, -1, -1, 0, 1, 1, -1)
    assert format_series(partial_product(12, 12)) == "1 - x - x^2 + x^5 + x^7 - x^12"


def test_partial_product_rejects_zero_factors():
    with pytest.raises(ValueError):
        partial_product(0, 4)


@given(st.integers(1, 40), st.permutations(list(range(1, 9))))
def test_partial_product_order_independent(order, ks):
    shuffled = one(order)
    for k in ks:
        shuffled = mul_binomial(shuffled, k, -1)
    assert shuffled.coeffs == partial_product(8, order).coeffs


@given(st.integers(1, 60), st.integers(0, 10))
def test_factors_beyond_order_are_identity(n, extra):
    assert partial_product(n, n).coeffs == partial_product(n + extra, n).coeffs


def test_product_range_empty_is_unit():
    assert product_range(5, 4, 6).coeffs == one(6).coeffs


@given(st.integers(1, 30), st.integers(0, 60), st.integers(0, 80))
def test_product_range_matches_the_ascending_chain(first, last, order):
    expected = ascending_product_range(first, last, order)
    assert product_range(first, last, order).coeffs == expected


def test_product_range_splits_partial_product():
    whole = partial_product(10, 14)
    split = mul(product_range(1, 4, 14), product_range(5, 10, 14))
    assert whole.coeffs == split.coeffs


def test_dunder_arithmetic_matches_functions():
    a, b = make_series([1, -1], 4), make_series([0, 2, 1], 4)
    assert (a + b).coeffs == add(a, b).coeffs
    assert (a - b).coeffs == sub(a, b).coeffs
    assert (a * b).coeffs == mul(a, b).coeffs
    assert a[1] == -1


@given(series())
def test_json_dense_roundtrip(a):
    assert series_from_json(to_dense_json(a)).coeffs == a.coeffs


@given(series())
def test_json_sparse_roundtrip(a):
    assert series_from_json(to_sparse_json(a)).coeffs == a.coeffs


def test_json_uses_decimal_strings():
    huge = make_series([10 ** 40, -(10 ** 41)], 1)
    dense = to_dense_json(huge)
    assert dense["coeffs"] == [str(10 ** 40), str(-(10 ** 41))]
    sparse = to_sparse_json(huge)
    assert sparse["terms"][1]["coeff"] == str(-(10 ** 41))


def test_format_series_rendering():
    assert format_series(make_series([], 3)) == "0"
    assert format_series(make_series([2], 0)) == "2"
    assert format_series(make_series([-1, 2], 1)) == "-1 + 2x"
    assert format_series(make_series([0, 1], 1)) == "x"
    assert format_series(make_series([0, -3, 0, 1], 3)) == "-3x + x^3"
    assert format_series(make_series([1, 0, 5], 2)) == "1 + 5x^2"
    assert format_series(make_series([0, -1], 1)) == "-x"


def test_nonzero_terms():
    assert make_series([1, 0, -2], 4).nonzero_terms() == [(0, 1), (2, -2)]


def test_div_binomial_at_order_boundaries():
    a = make_series([1, 2, 3], 2)
    # k == order: only the top coefficient picks up q_0
    assert div_binomial(a, 2).coeffs == (1, 2, 4)
    # k > order: (1 - x^k) is 1 in the truncated ring
    assert div_binomial(a, 3).coeffs == a.coeffs
    assert div_binomial(a, 50).coeffs == a.coeffs
    # order 0 holds only the constant term
    assert div_binomial(make_series([5], 0), 1).coeffs == (5,)


def test_json_rejects_negative_exponent():
    # used to wrap round to the top coefficient, x^order
    with pytest.raises(ValueError, match="exponent -1 is negative"):
        series_from_json({"order": 3, "terms": [{"exp": -1, "coeff": "5"}]})


def test_json_rejects_exponent_beyond_order():
    # used to surface as a bare IndexError
    with pytest.raises(ValueError, match="exponent 4 exceeds order 3"):
        series_from_json({"order": 3, "terms": [{"exp": 4, "coeff": "5"}]})


def test_json_rejects_duplicate_exponent():
    # used to keep the last value silently
    terms = [{"exp": 2, "coeff": "5"}, {"exp": 2, "coeff": "7"}]
    with pytest.raises(ValueError, match="duplicate term exponent 2"):
        series_from_json({"order": 3, "terms": terms})


@pytest.mark.parametrize(("obj", "field"), [
    # int() used to truncate these, so the first parsed as 2x at order 2
    ({"order": 2.9, "terms": [{"exp": 1.7, "coeff": 2.5}]}, "order"),
    ({"order": 2, "terms": [{"exp": 1.7, "coeff": "2"}]}, "exp"),
    ({"order": 2, "terms": [{"exp": 1, "coeff": 2.5}]}, "coeff"),
    ({"order": 2, "terms": [{"exp": 1, "coeff": True}]}, "coeff"),
    ({"order": True, "coeffs": ["1", "2"]}, "order"),
    ({"order": 1, "coeffs": ["1", "2.0"]}, "coeffs"),
    ({"order": 1, "coeffs": ["1", " 2"]}, "coeffs"),
    ({"order": 1, "coeffs": ["1", "1_0"]}, "coeffs"),
    ({"order": 1, "coeffs": [1, None]}, "coeffs"),
])
def test_json_rejects_numbers_that_are_not_integers(obj, field):
    with pytest.raises(ValueError, match=f"^{field}: expected an int"):
        series_from_json(obj)


@pytest.mark.parametrize(("obj", "field"), [
    # each used to raise KeyError or TypeError, and "123" parsed as 1 + 2x + 3x^2
    ({"coeffs": ["1"]}, "order"),
    ({"order": 1}, "coeffs or terms"),
    ({"order": 1, "terms": [{"coeff": "1"}]}, "exp"),
    ({"order": 1, "terms": [{"exp": 0}]}, "coeff"),
    (["order", 1], "order"),
    ("123", "order"),
    ({"order": 1, "terms": 5}, "terms"),
    ({"order": 1, "terms": {"exp": 0, "coeff": "1"}}, "terms"),
    ({"order": 1, "terms": ["0"]}, "exp"),
    ({"order": 2, "coeffs": "123"}, "coeffs"),
])
def test_json_rejects_malformed_structure(obj, field):
    with pytest.raises(ValueError, match=f"^{field}: "):
        series_from_json(obj)


@pytest.mark.parametrize(("order", "message"), [
    # used to blame the exponent, raise MemoryError and raise OverflowError
    (-1, "order: must be >= 0, got -1"),
    (10**15, f"order: {10**15} is too large to hold"),
    (10**20, f"order: {10**20} is too large to hold"),
])
def test_json_sparse_rejects_an_order_it_cannot_hold(order, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        series_from_json({"order": order, "terms": [{"exp": 3, "coeff": "1"}]})
    with pytest.raises(ValueError, match=f"^{message}$"):
        series_from_json({"order": order, "terms": []})


def test_json_accepts_ints_and_signed_decimal_strings():
    big = "-" + "9" * 60
    parsed = series_from_json({"order": "2", "coeffs": [3, "+4", big]})
    assert parsed.coeffs == (3, 4, int(big))
    parsed = series_from_json({"order": 3, "terms": [{"exp": "3", "coeff": -2}]})
    assert parsed.coeffs == (0, 0, 0, -2)


@given(st.integers(0, 24), st.integers(1, 100), st.booleans())
def test_json_rejects_any_exponent_outside_the_order(order, offset, below):
    exp = -offset if below else order + offset
    with pytest.raises(ValueError):
        series_from_json({"order": order, "terms": [{"exp": exp, "coeff": "1"}]})
