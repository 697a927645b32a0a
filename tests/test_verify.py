"""Division cascade, root multiplicities, and the bundled check suite."""

import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import pentagon.verify
from pentagon.pentagonal import closed_form_series
from pentagon.series import (
    div_binomial,
    make_series,
    mul_binomial,
    one,
    partial_product,
    product_range,
)
from pentagon.verify import (
    CheckResult,
    RootEntry,
    cascade_quotient,
    division_cascade,
    eval_partial_product_at_root,
    full_verification,
    primitive_root_entries,
    root_multiplicity,
    series_fingerprint,
)


def test_fingerprint_distinguishes_content_and_order():
    a = make_series([1, -1], 2)
    assert series_fingerprint(a) == series_fingerprint(make_series([1, -1], 2))
    assert series_fingerprint(a) != series_fingerprint(make_series([1, 1], 2))
    assert series_fingerprint(a) != series_fingerprint(make_series([1, -1], 3))


def test_fingerprint_frozen_value():
    # sha256 of the documented payload "order=2;1,-1,0"
    digest = series_fingerprint(make_series([1, -1], 2))
    assert digest == (
        "7aa40125b6ade4f02a337a18451cac99c5edac05fb807f38c4e16951122945c1"
    )


def test_cascade_smallest_order():
    report = division_cascade(1)
    assert report.final_is_unity
    assert len(report.steps) == 1
    assert report.steps[0].k == 1


def test_cascade_first_step_strips_first_factor():
    report = division_cascade(10)
    rest = product_range(2, 10, 10)
    assert report.steps[0].fingerprint == series_fingerprint(rest)


def test_cascade_intermediates_match_remaining_products():
    order = 120
    report = division_cascade(order)
    for m in range(order + 1):
        rest = product_range(m + 1, order, order)
        if m:
            assert report.steps[m - 1].fingerprint == series_fingerprint(rest)
        assert cascade_quotient(order, m).coeffs == rest.coeffs


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


def test_cascade_divides_in_full_after_the_first_wrong_head():
    # the two changes cancel in the x^11 head once step 10 has divided in
    # full, but x^10 of that quotient is 1, so step 11 must divide in full too
    coeffs = list(closed_form_series(60).coeffs)
    coeffs[10] += 1
    coeffs[11] -= 1
    assert_cascade_divides_exactly(make_series(coeffs, 60))


def test_cascade_ends_at_unity():
    for order in (1, 2, 7, 40, 120):
        report = division_cascade(order)
        assert report.final_is_unity
        assert [s.k for s in report.steps] == list(range(1, order + 1))
    assert cascade_quotient(40, 40).coeffs == one(40).coeffs


def test_cascade_rejects_order_zero():
    with pytest.raises(ValueError):
        division_cascade(0)


def test_cascade_quotient_at_step_zero_and_past_the_order():
    assert cascade_quotient(10, 0).coeffs == closed_form_series(10).coeffs
    assert cascade_quotient(12, 40).coeffs == one(12).coeffs


def test_root_multiplicity_examples():
    assert root_multiplicity(1, 5) == 5
    assert root_multiplicity(2, 10) == 5
    assert root_multiplicity(7, 6) == 0
    with pytest.raises(ValueError):
        root_multiplicity(0, 3)
    with pytest.raises(ValueError):
        root_multiplicity(3, 0)


@given(st.integers(1, 200), st.integers(1, 200))
def test_root_multiplicity_counts_divisible_factors(d, m):
    assert root_multiplicity(d, m) == sum(1 for k in range(1, m + 1) if k % d == 0)


def test_root_entries_are_primitive():
    assert [e.j for e in primitive_root_entries(1)] == [1]
    assert [e.j for e in primitive_root_entries(12)] == [1, 5, 7, 11]
    with pytest.raises(ValueError):
        RootEntry(6, 3)
    assert RootEntry(4, 3).multiplicity(9) == 2


def test_eval_examples():
    magnitude, is_zero = eval_partial_product_at_root(2, 1, 1)
    assert magnitude == pytest.approx(2.0)
    assert not is_zero
    magnitude, is_zero = eval_partial_product_at_root(2, 1, 2)
    assert magnitude == 0.0
    assert is_zero
    _, is_zero = eval_partial_product_at_root(3, 1, 5)
    assert is_zero


def test_eval_rejects_non_primitive_index():
    with pytest.raises(ValueError):
        eval_partial_product_at_root(4, 2, 3)
    with pytest.raises(ValueError):
        eval_partial_product_at_root(0, 1, 3)


def test_eval_zero_iff_enough_factors():
    for d in range(1, 9):
        for entry in primitive_root_entries(d):
            for m in range(1, 17):
                _, is_zero = eval_partial_product_at_root(d, entry.j, m)
                assert is_zero == (m >= d), (d, entry.j, m)


def test_eval_at_one_matches_product_value():
    # at d=1 the root is x=1 and every factor vanishes
    magnitude, is_zero = eval_partial_product_at_root(1, 1, 4)
    assert magnitude == 0.0 and is_zero


def test_eval_magnitude_matches_direct_evaluation():
    for d, j, m in [(5, 2, 4), (7, 3, 5), (12, 5, 11)]:
        zeta = complex(math.cos(2 * math.pi * j / d), math.sin(2 * math.pi * j / d))
        direct = 1.0
        for k in range(1, m + 1):
            direct *= abs(1 - zeta ** k)
        magnitude, is_zero = eval_partial_product_at_root(d, j, m)
        assert magnitude == pytest.approx(direct, rel=1e-9)
        assert not is_zero


def test_root_count_completeness():
    for m in range(1, 51):
        total = 0
        for d in range(1, m + 1):
            phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
            total += phi * root_multiplicity(d, m)
        assert total == m * (m + 1) // 2


def test_full_verification_passes():
    checks = full_verification(60, roots_max_d=6)
    assert [c.name for c in checks] == [
        "closed form equals product", "division cascade", "root structure"]
    assert all(isinstance(c, CheckResult) and c.passed for c in checks)


def test_full_verification_validates_arguments():
    with pytest.raises(ValueError):
        full_verification(1)
    with pytest.raises(ValueError):
        full_verification(10, roots_max_d=0)


@pytest.mark.parametrize("function, args, message", (
    (full_verification, (2.5,), "order must be an int, got 2.5"),
    (full_verification, (60, 6.0), "roots_max_d must be an int, got 6.0"),
    (division_cascade, (2.0,), "order must be an int, got 2.0"),
    (cascade_quotient, (True, 1), "order must be an int, got True"),
    (cascade_quotient, (10, 2.5), "upto_k must be an int, got 2.5"),
    (cascade_quotient, (10, True), "upto_k must be an int, got True"),
    (cascade_quotient, (10, -1), "upto_k must be >= 0, got -1"),
    (cascade_quotient, (10, -3), "upto_k must be >= 0, got -3"),
), ids=lambda value: value.__name__ if callable(value) else None)
def test_checks_reject_arguments_that_are_not_counts(function, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        function(*args)


def test_partial_product_value_at_one_is_zero_like():
    # sanity link between the root checks at d = 1 and the series:
    # summing coefficients evaluates the polynomial at x = 1
    series = partial_product(8, 36)
    assert sum(series.coeffs) == 0


def test_full_verification_reports_a_corrupted_quotient(monkeypatch):
    original = pentagon.verify._div_binomial_inplace

    def corrupt_step_5(coeffs, k, *args):
        original(coeffs, k, *args)
        if k == 5:
            coeffs[7] += 1

    monkeypatch.setattr(pentagon.verify, "_div_binomial_inplace", corrupt_step_5)
    closed, cascade, roots = full_verification(60, 6)
    assert closed.passed and roots.passed
    assert not cascade.passed
    assert cascade.detail == "quotient after step 5 differs from the remaining product"


def test_full_verification_reports_a_corrupted_product(monkeypatch):
    def corrupt_last_factor(a, k, c):
        p = mul_binomial(a, k, c)
        if k != 1:
            return p
        coeffs = list(p.coeffs)
        coeffs[4] += 1
        return make_series(coeffs, p.order)

    monkeypatch.setattr(pentagon.verify, "mul_binomial", corrupt_last_factor)
    closed, cascade, roots = full_verification(60, 6)
    assert cascade.passed and roots.passed
    assert not closed.passed
    assert closed.detail == "first mismatch at x^4: closed form 0, product 1"


def test_full_verification_divides_once_per_factor_and_hashes_nothing(monkeypatch):
    calls = Counter()

    def counted(name):
        original = getattr(pentagon.verify, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(pentagon.verify, name, wrapper)

    counted("series_fingerprint")
    counted("_div_binomial_inplace")
    assert all(c.passed for c in full_verification(300, 6))
    assert calls["series_fingerprint"] == 0
    assert calls["_div_binomial_inplace"] == 300


def test_multiplicity_count_is_checked_once(monkeypatch):
    full_verification(2, 1)
    full_verification(3, 2)
    cached = pentagon.verify._multiplicity_count_mismatch
    assert cached() is None
    assert cached.cache_info().misses == 1
    monkeypatch.setattr(pentagon.verify, "_multiplicity_count_mismatch", lambda: 7)
    closed, cascade, roots = full_verification(60, 6)
    assert closed.passed and cascade.passed
    assert not roots.passed
    assert roots.detail == "multiplicity count mismatch at m=7"


def test_roots_up_to_d_150_pass_where_a_float_tolerance_failed():
    # |P_20(zeta_125)| is 1.9e-8: small, but not zero
    assert eval_partial_product_at_root(125, 1, 20)[1] is False
    assert eval_partial_product_at_root(125, 1, 125)[1] is True
    closed, cascade, roots = full_verification(2, 150)
    assert roots.passed
    assert roots.detail == "d <= 150, m <= 300, multiplicity sums to m <= 50"


def test_full_verification_reports_a_skipped_factor_at_a_root(monkeypatch):
    original = pentagon.verify._subtract_rotated

    def skip_factor_6(v, k):
        return v if k == 6 else original(v, k)

    monkeypatch.setattr(pentagon.verify, "_subtract_rotated", skip_factor_6)
    closed, cascade, roots = full_verification(60, 6)
    assert closed.passed and cascade.passed
    assert not roots.passed
    assert roots.detail == "zeta(d=6, j=1) at m=6: is_zero=False, expected True"
