"""Division cascade, root multiplicities, and the bundled check suite."""

import math
import os

import pytest
from hypothesis import given, strategies as st

import pentagon._worker
import pentagon.verify
from pentagon.pentagonal import closed_form_series
from pentagon.series import (
    TruncatedSeries,
    div_binomial,
    make_series,
    one,
    partial_product,
    product_range,
)
from pentagon.verify import CheckResult, _first_root_mismatch, full_verification


def cascade_quotients(order):
    """Copies of the closed form's quotients after steps 0..order."""
    return [q[:] for q in pentagon.verify._cascade(closed_form_series(order))]


def test_cascade_smallest_order():
    assert cascade_quotients(1) == [[1, -1], [1, 0]]


def test_cascade_first_step_strips_first_factor():
    assert cascade_quotients(10)[1] == list(product_range(2, 10, 10).coeffs)


def test_cascade_intermediates_match_remaining_products():
    # full_verification may compare the quotient after any step m with
    # the product of the factors above m
    for order in (1, 2, 3, 8, 25, 120):
        quotients = cascade_quotients(order)
        assert len(quotients) == order + 1
        for m, q in enumerate(quotients):
            assert q == list(product_range(m + 1, order, order).coeffs), (order, m)


def test_cascade_starts_every_step_of_the_closed_form_at_2k_plus_1(monkeypatch):
    starts = []
    original = pentagon.verify._div_binomial_inplace

    def recorded(coeffs, k, *args):
        starts.append((k, *args))
        original(coeffs, k, *args)

    monkeypatch.setattr(pentagon.verify, "_div_binomial_inplace", recorded)
    *_, last = pentagon.verify._cascade(closed_form_series(300))
    assert last == [1] + [0] * 300
    assert starts == [(k, 2 * k + 1) for k in range(1, 301)]


def test_cascade_work_budget(division_updates, one_process):
    # from 2k + 1 step k updates N - 2k entries, N^2/4 - N/2 in all;
    # full divisions from k would update about N^2/2
    *_, last = pentagon.verify._cascade(closed_form_series(2000))
    assert last == [1] + [0] * 2000
    assert len(division_updates) == 2000
    assert sum(division_updates) == 2000 ** 2 // 4 - 2000 // 2 == 999_000


@st.composite
def perturbed_closed_forms(draw):
    """The closed form at order 2..80 with up to two coefficients moved by a
    small nonzero amount, anywhere from x^0 to x^order."""
    order = draw(st.integers(2, 80))
    coeffs = list(closed_form_series(order).coeffs)
    for _ in range(draw(st.integers(0, 2))):
        e = draw(st.integers(0, order))
        coeffs[e] += draw(st.sampled_from((-2, -1, 1, 2)))
    return make_series(coeffs, order)


def assert_cascade_divides_exactly(series):
    expected = series
    for k, q in enumerate(pentagon.verify._cascade(series)):
        if k:
            expected = div_binomial(expected, k)
        assert tuple(q) == expected.coeffs


@given(perturbed_closed_forms())
def test_cascade_yields_the_exact_quotient_of_any_input(series):
    assert_cascade_divides_exactly(series)


@st.composite
def closed_forms_wrong_at(draw):
    """The closed form at order 2..80 with one coefficient moved by a
    nonzero amount, and the exponent of that coefficient."""
    order = draw(st.integers(2, 80))
    e = draw(st.integers(0, order))
    coeffs = list(closed_form_series(order).coeffs)
    coeffs[e] += draw(st.integers(-5, 5).filter(bool))
    return make_series(coeffs, order), e


def first_difference(a, b):
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)


@given(closed_forms_wrong_at())
def test_a_wrong_term_shows_at_its_exponent_whatever_the_split(case):
    # Q_m - R_m is (input - P)/P_m, a unit times the error, for every m;
    # m = order is the final quotient against 1
    series, e = case
    order = series.order
    for m, q in enumerate(pentagon.verify._cascade(series)):
        assert first_difference(
            q, product_range(m + 1, order, order).coeffs) == e, m


def test_cascade_divides_in_full_after_the_first_wrong_head():
    # the two changes cancel in the x^11 head once step 10 has divided in
    # full, but x^10 of that quotient is 1, so step 11 must divide in full too
    coeffs = list(closed_form_series(60).coeffs)
    coeffs[10] += 1
    coeffs[11] -= 1
    assert_cascade_divides_exactly(make_series(coeffs, 60))


def test_cascade_yields_its_input_before_the_first_step():
    assert cascade_quotients(10)[0] == list(closed_form_series(10).coeffs)
    assert cascade_quotients(0) == [[1]]


def test_cascade_ends_at_unity():
    for order in (1, 2, 7, 40, 120):
        *_, last = pentagon.verify._cascade(closed_form_series(order))
        assert last == list(one(order).coeffs)


def test_exact_zero_test_holds_exactly_from_m_equal_d():
    # P_m = 0 in Z[x]/(x^d - 1) exactly from m = d on, for every d <= 60;
    # one verdict per d covers every primitive d-th root
    assert _first_root_mismatch(60) is None


def test_first_root_mismatch_names_a_zero_before_m_reaches_d(monkeypatch):
    # the other direction from a skipped factor: a root product that is 0
    # after factor 4, reported where d = 5 first tests it
    original = pentagon.verify._add_shifted

    def zero_after_4(out, e, c, a):
        original(out, e, c, a)
        if e == 4:
            out[:] = [0] * len(out)

    monkeypatch.setattr(pentagon.verify, "_add_shifted", zero_after_4)
    assert _first_root_mismatch(4) is None
    assert _first_root_mismatch(12) == (5, 4)
    closed, cascade, roots = full_verification(60, 6)
    assert closed.passed and cascade.passed
    assert not roots.passed
    assert roots.detail == "zeta(d=5) at m=4: is_zero=True, expected False"


def test_root_count_completeness():
    for m in range(1, 51):
        total = 0
        for d in range(1, m + 1):
            phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
            total += phi * (m // d)
        assert total == m * (m + 1) // 2


def test_full_verification_passes():
    checks = full_verification(60, roots_max_d=6)
    assert [c.name for c in checks] == [
        "closed form equals product", "division cascade", "root structure"]
    assert all(isinstance(c, CheckResult) and c.passed for c in checks)


@pytest.mark.parametrize("function, args, message", (
    (full_verification, (2.5,), "order must be an int, got 2.5"),
    (full_verification, (60, 6.0), "roots_max_d must be an int, got 6.0"),
    (full_verification, (2.0,), "order must be an int, got 2.0"),
    (full_verification, (True,), "order must be an int, got True"),
    (full_verification, (60, True), "roots_max_d must be an int, got True"),
    (full_verification, (1,), "order must be >= 2, got 1"),
    (full_verification, (10, 0), "roots_max_d must be >= 1, got 0"),
), ids=lambda value: value.__name__ if callable(value) else None)
def test_checks_reject_arguments_that_are_not_counts(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


def test_partial_product_value_at_one_is_zero_like():
    # sanity link between the root checks at d = 1 and the series:
    # summing coefficients evaluates the polynomial at x = 1
    series = partial_product(8, 36)
    assert sum(series.coeffs) == 0


def use_worker(monkeypatch, choice: bool) -> None:
    monkeypatch.setattr(pentagon.verify, "_use_worker", lambda updates: choice)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def parent_factors(monkeypatch):
    """The cascade factors this process divides by; a forked worker's
    calls land in its own copy of the list."""
    factors = []
    divide = pentagon.verify._div_binomial_inplace

    def recorded(coeffs, k, *args):
        factors.append(k)
        divide(coeffs, k, *args)

    monkeypatch.setattr(pentagon.verify, "_div_binomial_inplace", recorded)
    return factors


@pytest.mark.parametrize("order", (500, 1500), ids=("below", "above"))
def test_a_worker_returns_what_one_process_returns(monkeypatch, parent_factors,
                                                  order):
    # order 500 is below the worker's break-even and 1500 above it; the
    # split is forced on both sides, and must change nothing
    half = order // 2
    updates = half * (order - half - 1)
    assert (updates >= pentagon._worker._WORKER_UPDATES) == (order == 1500)
    use_worker(monkeypatch, False)
    alone = full_verification(order, 8)
    assert parent_factors == list(range(1, order + 1))
    use_worker(monkeypatch, True)
    parent_factors.clear()
    assert full_verification(order, 8) == alone
    assert_no_child_left()
    # this process divided up to the step that splits the updates evenly
    m = len(parent_factors)
    assert parent_factors == list(range(1, m + 1))
    assert abs(2 * m * (order - m - 1) - updates) <= order
    assert 0.14 < m / order < 0.15


def corrupt_product(monkeypatch):
    original = pentagon.verify.partial_product

    def corrupt_x4(m, order):
        coeffs = list(original(m, order).coeffs)
        coeffs[4] += 1
        return TruncatedSeries(tuple(coeffs))

    monkeypatch.setattr(pentagon.verify, "partial_product", corrupt_x4)


def corrupt_quotient(monkeypatch):
    original = pentagon.verify._div_binomial_inplace

    def corrupt_step_5(coeffs, k, *args):
        original(coeffs, k, *args)
        if k == 5:
            coeffs[7] += 1

    monkeypatch.setattr(pentagon.verify, "_div_binomial_inplace", corrupt_step_5)


def skip_root_factor(monkeypatch):
    original = pentagon.verify._add_shifted

    def skip_factor_6(out, e, c, a):
        if e != 6:
            original(out, e, c, a)

    monkeypatch.setattr(pentagon.verify, "_add_shifted", skip_factor_6)


@pytest.mark.parametrize("corrupt, failing, detail", (
    (corrupt_product, 0, "first mismatch at x^4: closed form 0, product 1"),
    (corrupt_quotient, 1, "final quotient is not 1: first wrong term at x^7"),
    (skip_root_factor, 2, "zeta(d=6) at m=6: is_zero=False, expected True"),
), ids=("product", "quotient", "root-factor"))
def test_each_corruption_fails_only_its_own_check(monkeypatch, corrupt, failing,
                                                  detail):
    # each check reads its own input: the product, the cascade's quotient
    # against the factors left, or the root product; above the worker's
    # break-even the detail reads the same with or without the worker
    corrupt(monkeypatch)
    for order, worker in ((60, False), (1500, False), (1500, True)):
        use_worker(monkeypatch, worker)
        checks = full_verification(order, 6)
        assert [c.passed for c in checks] == [i != failing for i in range(3)]
        assert checks[failing].detail == detail
        assert_no_child_left()


def test_full_verification_adds_shifted_only_for_the_root_product(monkeypatch,
                                                                  one_process):
    calls = []
    original = pentagon.verify._add_shifted

    def recorded(out, e, c, a):
        calls.append((e, c))
        original(out, e, c, a)

    monkeypatch.setattr(pentagon.verify, "_add_shifted", recorded)
    assert all(c.passed for c in full_verification(300, 6))
    # one pass per factor of the root product, none repeated per d
    assert calls == [(d, -1) for d in range(1, 7)]


def test_full_verification_divides_once_per_factor(monkeypatch, one_process):
    factors = []
    original = pentagon.verify._div_binomial_inplace

    def recorded(coeffs, k, *args):
        factors.append(k)
        original(coeffs, k, *args)

    monkeypatch.setattr(pentagon.verify, "_div_binomial_inplace", recorded)
    assert all(c.passed for c in full_verification(300, 6))
    assert factors == list(range(1, 301))


def test_roots_up_to_d_150_pass_where_a_float_tolerance_failed():
    # |P_20(zeta_125)| is 1.9e-8: small, but not zero
    closed, cascade, roots = full_verification(2, 150)
    assert roots.passed
    assert roots.detail == "d <= 150, m <= 300"


def test_roots_max_d_is_at_most_500(monkeypatch):
    # the root sweep grows as D^3; a wider one is refused before anything
    # is built
    def built(*args):
        raise AssertionError("a product was built")

    monkeypatch.setattr(pentagon.verify, "partial_product", built)
    with pytest.raises(ValueError, match="^roots_max_d must be <= 500, got 501$"):
        full_verification(2, 501)
    monkeypatch.undo()
    swept = []
    # stands in for the 3 s sweep; append returns None, the sweep's pass
    monkeypatch.setattr(pentagon.verify, "_first_root_mismatch", swept.append)
    assert all(c.passed for c in full_verification(2, 500))
    assert swept == [500]
