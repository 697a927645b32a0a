"""Ring arithmetic: frozen examples plus sampled algebraic laws."""

import dataclasses
import sys

import pytest
from hypothesis import example, given, strategies as st

import pentagon.series
from pentagon.partitions import (partitions_oracle_dp, partitions_recurrence,
                                 reciprocal_series)
from pentagon.pentagonal import closed_form_series, pentagonal_terms_upto
from pentagon.series import (
    TruncatedSeries,
    _add_shifted,
    _div_binomial_inplace,
    _div_sparse,
    _divisor_sums,
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
from pentagon.telescope import DerivationTrace, expand_tail, initial_tail


@st.composite
def series(draw, max_order=24, coeff_bound=999):
    order = draw(st.integers(min_value=0, max_value=max_order))
    coeffs = draw(st.lists(st.integers(-coeff_bound, coeff_bound),
                           min_size=order + 1, max_size=order + 1))
    return TruncatedSeries(tuple(coeffs))


def literal_mul(a, b):
    """a * b, truncated to the shorter list: the schoolbook double loop."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return out


def literal_mul_binomial(coeffs, k):
    """coeffs * (1 - x^k), truncated to len(coeffs), one entry at a time
    from the top, so each entry reads one below it that is not yet updated."""
    out = list(coeffs)
    for i in range(len(out) - 1, k - 1, -1):
        out[i] -= out[i - k]
    return out


def literal_div_binomial(coeffs, k):
    """coeffs / (1 - x^k), truncated to len(coeffs): q_i = a_i + q_(i-k),
    one entry at a time from the bottom."""
    out = list(coeffs)
    for i in range(k, len(out)):
        out[i] += out[i - k]
    return out


def literal_div_sparse(coeffs, terms):
    """coeffs / (1 + the sum of c*x^e over the (e, c) in terms), truncated
    to len(coeffs): the divisor written out densely, then
    q_i = a_i - (the sum of d_j * q_(i-j) for j = 1..i), one entry at a
    time from the bottom."""
    divisor = [1] + [0] * len(coeffs)
    for e, c in terms:
        if e < len(coeffs):
            divisor[e] += c
    out = []
    for i, a in enumerate(coeffs):
        out.append(a - sum(divisor[j] * out[i - j] for j in range(1, i + 1)))
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
    with pytest.raises(ValueError, match=r"^order must be >= 0, got -1$"):
        TruncatedSeries(())


@pytest.mark.parametrize("coeffs, message", (
    ((1.5, 2), r"coeffs\[0\] must be an int, got 1.5"),
    ((1, 2, True), r"coeffs\[2\] must be an int, got True"),
    ((True,), r"coeffs\[0\] must be an int, got True"),
    ([1, 2], r"coeffs must be a tuple, got list"),
))
def test_series_rejects_a_list_and_entries_that_are_not_ints(coeffs, message):
    # a float reached mul and the JSON export, and a list stayed mutable
    # and unhashable, so its order changed when it grew
    with pytest.raises(ValueError, match=f"^{message}$"):
        TruncatedSeries(coeffs)


def test_order_is_the_coefficient_count_less_one():
    assert TruncatedSeries((1, 2, 3)).order == 2
    assert TruncatedSeries((7,)).order == 0


@pytest.mark.parametrize("function, args", ((make_series, ([], -5)),
                                            (monomial, (0, -5)),
                                            (partial_product, (3, -5)),
                                            (product_range, (1, 3, -5))))
def test_constructors_name_the_negative_order_they_were_given(function, args):
    with pytest.raises(ValueError, match="^order must be >= 0, got -5$"):
        function(*args)


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
    (monomial, (-1, 3), "exponent must be >= 0, got -1"),
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


@pytest.mark.parametrize("index, error, message", (
    (-1, IndexError, "exponent = -1 is outside 0..7"),
    (8, IndexError, "exponent = 8 is outside 0..7"),
    (2.0, TypeError, "exponent must be an int in 0..7, got 2.0"),
    (slice(1, 3), TypeError, r"exponent must be an int in 0..7, got slice\(1, 3, None\)"),
))
def test_series_rejects_exponents_outside_0_to_order(index, error, message):
    s = make_series([1, -1, -1, 0, 0, 1, 0, 1], 7)
    with pytest.raises(error, match=f"^{message}$"):
        s[index]
    assert list(s) == [1, -1, -1, 0, 0, 1, 0, 1]


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
    (mul_binomial, (one(3), 0, -1), "k must be >= 1, got 0"),
    (div_binomial, (one(3), 0), "k must be >= 1, got 0"),
    (product_range, (0, 3, 3), "first must be >= 1, got 0"),
    (partial_product, (0, 3), "m must be >= 1, got 0"),
), ids=lambda value: value.__name__ if callable(value) else None)
def test_binomial_wrappers_reject_non_int_and_out_of_range_arguments(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


@given(kernel_cases())
def test_add_shifted_times_one_minus_x_k_matches_the_literal_loop(case):
    # the multiply-back passes the list itself as the shifted source
    coeffs, k = case
    expected = literal_mul_binomial(coeffs, k)
    assert list(mul_binomial(TruncatedSeries(tuple(coeffs)), k, -1).coeffs) == expected
    _add_shifted(coeffs, k, -1, coeffs)
    assert coeffs == expected


@given(kernel_cases(), st.data())
def test_add_shifted_from_a_later_start_finishes_the_product(case, data):
    # zeros k below start - k..start - 1 leave those entries as they are,
    # and the entries below start already hold the product
    coeffs, k = case
    start = data.draw(st.integers(k, len(coeffs) + k))
    for i in range(max(0, start - 2 * k), min(start - k, len(coeffs))):
        coeffs[i] = 0
    expected = literal_mul_binomial(coeffs, k)
    assert expected[start - k:start] == coeffs[start - k:start]
    coeffs[:start] = expected[:start]
    _add_shifted(coeffs, start, -1, coeffs[start - k:])
    assert coeffs == expected


def spy_on_add_shifted(monkeypatch):
    """Record (e, c) of every call to the multiplication kernel."""
    calls = []
    original = pentagon.series._add_shifted

    def recorded(out, e, c, a):
        calls.append((e, c))
        original(out, e, c, a)

    monkeypatch.setattr(pentagon.series, "_add_shifted", recorded)
    return calls


def test_partial_range_sweep_starts_every_factor_at_2k_plus_1(monkeypatch):
    reference = ascending_product_range(5, 40, 60)
    calls = spy_on_add_shifted(monkeypatch)
    assert product_range(5, 40, 60).coeffs == reference
    assert calls == [(2 * k + 1, -1) for k in range(40, 4, -1)]


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


# lengths k * k - 1, k * k and k * k + 1, at the starts k, 2k and 2k + 1
# and at the top of the list and past it; the one start below k, the
# empty list's top at k = 1, must be refused
KERNEL_START_CASES = [
    (k, k * k + offset, start)
    for k in (1, 2, 3, 5, 8)
    for offset in (-1, 0, 1)
    for start in (k, 2 * k, 2 * k + 1, k * k + offset, k * k + offset + k)
]


@pytest.mark.parametrize("k, length, start",
                         [case for case in KERNEL_START_CASES if case[2] >= case[0]])
def test_div_binomial_kernel_from_every_caller_start_and_past_the_top(k, length, start):
    sample = [(-1) ** i * (7 * i * i + 3 * i + 1) for i in range(length)]
    expected = literal_div_binomial(sample, k)
    coeffs = expected[:start] + sample[start:]
    _div_binomial_inplace(coeffs, k, start)
    assert coeffs == expected


@pytest.mark.parametrize("k, length, start",
                         [(5, 8, 2), (4, 12, 3)]
                         + [case for case in KERNEL_START_CASES if case[2] < case[0]])
def test_div_binomial_kernel_refuses_a_start_below_k(k, length, start):
    # q_(start-k) would not exist, so the list must be left as it was; a
    # list iterator set to start - k = -1 would read from x^0 or nothing
    coeffs = list(range(1, length + 1))
    with pytest.raises(ValueError,
                       match=rf"^start must be >= k, got start={start}, k={k}$"):
        _div_binomial_inplace(coeffs, k, start)
    assert coeffs == list(range(1, length + 1))


@given(series(max_order=40, coeff_bound=10**30),
       st.dictionaries(st.integers(0, 45),
                       st.one_of(st.sampled_from((-1, 1)),
                                 st.integers(-10**40, 10**40).filter(bool))))
def test_add_shifted_passes_sum_to_literal_mul(a, terms):
    # the terms built densely; any coefficient counts, not only +-1, and
    # an exponent past the order adds nothing
    dense = [0] * len(a.coeffs)
    for e, c in terms.items():
        if e <= a.order:
            dense[e] = c
    expected = literal_mul(a.coeffs, dense)
    for source in (a.coeffs, list(a.coeffs)):
        out = [0] * len(a.coeffs)
        for e, c in terms.items():
            _add_shifted(out, e, c, source)
        assert out == expected


@given(series(max_order=40, coeff_bound=10**30),
       series(max_order=20, coeff_bound=10**30))
def test_mul_skips_the_zeros_of_a_series_at_x_squared(a, b):
    # a series at x^2: its (2e, c) terms, every other exponent skipped
    dilated = [0] * len(a.coeffs)
    for e, c in enumerate(b.coeffs[:a.order // 2 + 1]):
        dilated[2 * e] = c
    expected = literal_mul(a.coeffs, dilated)
    assert list(mul(TruncatedSeries(tuple(dilated)), a).coeffs) == expected


# two offsets of the same sign arriving at different m, so a kernel that
# builds its gatherers only at the first offset fails on every run
@example([1] + [0] * 9, [(1, -1), (2, -1)])
@example([1] + [0] * 9, [(3, 1), (1, 1)])
@example([5, -2, 7, 0, 3, 1], [(2, 1), (4, 1), (1, -1), (3, -1)])
@given(st.lists(st.integers(-10**30, 10**30), max_size=40),
       st.lists(st.tuples(st.integers(1, 50), st.sampled_from((-1, 1)))))
def test_div_sparse_kernel_matches_the_literal_long_division(coeffs, terms):
    # repeated exponents, any order of the terms, empty lists and terms
    # past the end of the list; the dividend as a list and as a stream
    expected = literal_div_sparse(coeffs, terms)
    assert _div_sparse(coeffs, terms) == expected
    assert _div_sparse(iter(coeffs), iter(terms)) == expected


@pytest.mark.parametrize("c", (0, 2, -3, 10**30))
def test_div_sparse_kernel_rejects_a_coefficient_other_than_1_or_minus_1(c):
    # its one caller divides by the closed form, whose terms are +-1; the
    # check runs before any value is read, past the last value too
    values = iter([1, 2, 3])
    with pytest.raises(ValueError, match=f"^term x\\^7: coefficient must be 1 or -1, got {c}$"):
        _div_sparse(values, [(1, -1), (7, c)])
    assert list(values) == [1, 2, 3]


@given(series(), st.integers(1, 30),
       st.one_of(st.integers(-3, 3), st.integers(-10**40, 10**40)))
def test_mul_binomial_matches_literal_mul(a, k, c):
    binomial = [1] + [0] * a.order
    if k <= a.order:
        binomial[k] = c
    assert list(mul_binomial(a, k, c).coeffs) == literal_mul(a.coeffs, binomial)


@given(series(coeff_bound=10**40), series(coeff_bound=10**40))
def test_mul_matches_literal_mul(a, b):
    assert list(mul(a, b).coeffs) == literal_mul(a.coeffs, b.coeffs)


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


def test_full_product_path_matches_the_ascending_chain():
    # last >= order reads the product off its logarithmic derivative,
    # last = order - 1 takes the single sweep
    for order in (*range(301), 2000, 2500):
        expected = ascending_product_range(1, order, order)
        for last in (order, order + 3):
            assert product_range(1, last, order).coeffs == expected, (order, last)
        expected = ascending_product_range(1, order - 1, order)
        assert product_range(1, order - 1, order).coeffs == expected, order


@pytest.mark.parametrize("block, rows_read_at_2000", ((7, 97_161), (128, 92_336)))
def test_full_product_gathers_per_block_and_pushes_within_it(monkeypatch, block,
                                                             rows_read_at_2000):
    # at the start of each block, one (0, c) pass per coefficient value
    # found before it adds that group's sigma rows; inside the block, each
    # nonzero p_n but the block's last adds p_n * sigma from the next slot
    # on; every pass runs over one block, no sweep pass runs, and no
    # division kernel runs. At 7, p_7 and p_301 are the last of a block
    monkeypatch.setattr(pentagon.series, "_BLOCK", block)
    calls, rows = [], []
    add_shifted, divisor_sums = pentagon.series._add_shifted, pentagon.series._divisor_sums

    def recorded(out, e, c, a):
        calls.append((e, c, len(out)))
        add_shifted(out, e, c, a)

    class CountedRows(list):
        def __getitem__(self, index):
            if isinstance(index, slice) and index.stop is not None:
                rows.append(index.stop - index.start)
            return list.__getitem__(self, index)

    monkeypatch.setattr(pentagon.series, "_add_shifted", recorded)
    monkeypatch.setattr(pentagon.series, "_divisor_sums",
                        lambda n: CountedRows(divisor_sums(n)))
    for name in ("_div_binomial_inplace", "_div_sparse"):
        monkeypatch.setattr(pentagon.series, name,
                            lambda *args, name=name: calls.append(name))
    for order in (300, 301, 2000):
        calls.clear()
        rows.clear()
        partial_product(order, order)
        terms = pentagonal_terms_upto(order)
        expected, budget = [], 0
        for n0 in range(1, order + 1, block):
            n1 = min(n0 + block, order + 1)
            before = [c for e, c in terms if e < n0]
            expected += [(0, c, n1 - n0) for c in dict.fromkeys(before)]
            expected += [(e - n0 + 1, c, n1 - n0) for e, c in terms if n0 <= e < n1 - 1]
            budget += len(before) * (n1 - n0)
        assert calls == expected, order
        assert max(length for _, _, length in calls) <= block
        # sigma entries read across blocks: one row per earlier p_j
        assert sum(rows) == budget, order
    assert budget == rows_read_at_2000


@pytest.mark.parametrize("block", (1, 2, 3, 7))
def test_full_product_is_exact_for_short_blocks(monkeypatch, block):
    # short blocks put nonzero coefficients at the first and the last
    # slot of a block, and at both when a block holds one exponent
    monkeypatch.setattr(pentagon.series, "_BLOCK", block)
    for order in range(81):
        expected = ascending_product_range(1, order, order)
        assert product_range(1, order, order).coeffs == expected, order


@pytest.mark.parametrize("block", (1, 3, 7, 128))
@pytest.mark.parametrize("power", (2, 3))
def test_full_product_path_handles_any_coefficient_value(monkeypatch, block, power):
    # power * sigma is the log-derivative of the power-th power of the
    # product, whose coefficients are not all +-1 (the cube's run 1, -3,
    # 5, -7, ...), so the sums gather more than two groups of p_j
    divisor_sums = pentagon.series._divisor_sums
    monkeypatch.setattr(pentagon.series, "_BLOCK", block)
    monkeypatch.setattr(pentagon.series, "_divisor_sums",
                        lambda n: [power * s for s in divisor_sums(n)])
    for order in (0, 1, 2, 9, 10, 80, 300):
        base = TruncatedSeries(ascending_product_range(1, order, order))
        expected = base
        for _ in range(power - 1):
            expected = mul(expected, base)
        assert product_range(1, order, order).coeffs == expected.coeffs, order


def plain_divisor_sum(n):
    return sum(d for d in range(1, n + 1) if n % d == 0)


def test_divisor_sums_match_a_plain_divisor_loop():
    # every n <= 400 ends on its own square, just past one or just below one
    plain = [0] + [plain_divisor_sum(n) for n in range(1, 501)]
    for n in range(401):
        assert _divisor_sums(n) == plain[:n + 1], n
    assert _divisor_sums(500) == plain


@pytest.mark.parametrize("wrong", (2, 3, 97, 128, 129, 500))
def test_a_wrong_divisor_sum_raises_naming_its_exponent(monkeypatch, wrong):
    # sigma(wrong) one too large leaves a sum that wrong does not divide;
    # the product must stop there, not round the quotient and go on.
    # 128 is the last exponent of the first block and 129 the first of
    # the second, whose sum comes only from the rows gathered before it
    assert pentagon.series._BLOCK == 128
    original = pentagon.series._divisor_sums

    def off_by_one(n):
        sums = original(n)
        sums[wrong] += 1
        return sums

    monkeypatch.setattr(pentagon.series, "_divisor_sums", off_by_one)
    with pytest.raises(ArithmeticError, match=f"^x\\^{wrong}: {wrong} does not divide "):
        partial_product(600, 600)


def test_an_order_no_list_can_hold_is_named_not_a_memory_error():
    # used to raise MemoryError; CPython refuses this size before allocating
    message = f"^order: {sys.maxsize} is too large to hold$"
    for function, args in ((product_range, (1, sys.maxsize, sys.maxsize)),
                           (product_range, (5, 10, sys.maxsize)),
                           (partial_product, (sys.maxsize, sys.maxsize))):
        with pytest.raises(ValueError, match=message):
            function(*args)


@pytest.mark.parametrize("function, args", (
    (make_series, ([1], 2**62)),
    (one, (2**62,)),
    (monomial, (2**62, 2**62)),
    (closed_form_series, (2**62,)),
    (reciprocal_series, (2**62,)),
    (partitions_recurrence, (2**62,)),
    (partitions_oracle_dp, (2**62,)),
    (expand_tail, (initial_tail(1), 2**62)),
    (DerivationTrace(1, 2**62, (), initial_tail(1)).reconstruct, ()),
), ids=lambda value: value.__name__ if callable(value) else None)
def test_every_order_sized_list_names_an_order_no_list_can_hold(function, args):
    # most raised a MemoryError with an empty message, and expand_tail
    # ran its level loop first, about 4e9 times at sys.maxsize; CPython
    # refuses this size before allocating
    with pytest.raises(ValueError, match=f"^order: {2**62} is too large to hold$"):
        function(*args)


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


@pytest.mark.parametrize(("obj", "message"), [
    ({"order": 2, "coeffs": ["1", "2"]}, "coeffs: need 3 for order 2, got 2"),
    ({"order": 0, "coeffs": [1, 2]}, "coeffs: need 1 for order 0, got 2"),
    ({"order": -1, "coeffs": []}, "order: must be >= 0, got -1"),
    ({"order": -3, "coeffs": []}, "order: must be >= 0, got -3"),
])
def test_json_dense_rejects_a_count_that_does_not_match_the_order(obj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        series_from_json(obj)


def test_json_rejects_both_schemas_at_once():
    # the dense list used to win and the terms were dropped without a word
    obj = {"order": 2, "coeffs": ["1", "0", "0"], "terms": [{"exp": 1, "coeff": "5"}]}
    with pytest.raises(ValueError, match="^coeffs and terms: "):
        series_from_json(obj)


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="this Python converts any number of digits")
@pytest.mark.parametrize("field", ["order", "coeffs", "exp", "coeff"])
def test_json_names_the_field_of_a_string_past_the_digit_limit(field):
    # int() used to raise its own message, which names no field
    long = "9" * (_DIGIT_LIMIT + 1)
    obj = {
        "order": {"order": long, "coeffs": []},
        "coeffs": {"order": 0, "coeffs": [long]},
        "exp": {"order": 1, "terms": [{"exp": long, "coeff": "1"}]},
        "coeff": {"order": 1, "terms": [{"exp": 1, "coeff": "-" + long}]},
    }[field]
    with pytest.raises(ValueError, match=f"^{field}: "):
        series_from_json(obj)


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
