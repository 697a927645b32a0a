"""Acceptance gate: the eight headline checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
criterion 8 re-derives p(0..50000) with the independent Durfee-square
oracle, a few seconds in all.
"""

import math
import time
from contextlib import contextmanager

from pentagon.cli import main
from pentagon.partitions import (
    partitions_enumerate,
    partitions_oracle_dp,
    partitions_recurrence,
    reciprocal_series,
)
from pentagon.pentagonal import closed_form_series
from pentagon.series import one, partial_product, product_range
from pentagon.telescope import replay_stages, run_telescope
from pentagon.verify import _cascade, _first_root_mismatch


@contextmanager
def verdict(number, description):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        print(f"{outcome} criterion {number}: {description}")


def test_criterion_1_closed_form_equals_product():
    with verdict(1, "closed form = product for N <= 300 and N in {1000, 2000}, "
                    "exact, under 10s"):
        start = time.perf_counter()
        for n in range(1, 301):
            assert closed_form_series(n).coeffs == partial_product(n, n).coeffs, n
        for n in (1000, 2000):
            assert closed_form_series(n).coeffs == partial_product(n, n).coeffs, n
        assert time.perf_counter() - start < 10.0


def test_criterion_2_displayed_series_byte_exact(capsys):
    with verdict(2, "first twelve nonzero terms match the displayed series, "
                    "byte-exact via expand --order 51"):
        assert main(["expand", "--order", "51"]) == 0
        out = capsys.readouterr().out
        assert out == ("1 - x - x^2 + x^5 + x^7 - x^12 - x^15 + x^22 + x^26"
                       " - x^35 - x^40 + x^51\n")
        terms = closed_form_series(51).nonzero_terms()
        assert terms == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1),
                         (15, -1), (22, 1), (26, 1), (35, -1), (40, -1), (51, 1)]


def test_criterion_3_telescoping_verified_at_order_1200():
    with verdict(3, "both variants: stages through 25 pass their identity "
                    "check at order 1200; reconstruction matches the closed form"):
        expected = closed_form_series(1200).coeffs
        for variant in (1, 2):
            # raises StageVerificationError at the first stage that fails
            assert len(replay_stages(variant, 25, 1200)) == 25
            trace = run_telescope(variant, 1200)
            assert len(trace.emissions) >= 25
            assert trace.reconstruct().coeffs == expected


def test_criterion_4_cross_variant_equivalence():
    with verdict(4, "variants 1 and 2 emit identical (exponent, sign) "
                    "multisets up to order 1200"):
        term_sets = []
        for variant in (1, 2):
            trace = run_telescope(variant, 1200)
            terms = sorted(
                list(trace.prefix)
                + [(r.first_exponent, r.first_sign) for r in trace.emissions
                   if r.first_exponent <= 1200]
                + [(r.second_exponent, r.second_sign) for r in trace.emissions
                   if r.second_exponent <= 1200]
            )
            term_sets.append(terms)
        assert term_sets[0] == term_sets[1]


def test_criterion_5_partition_triple_check():
    with verdict(5, "recurrence = DP for n <= 2000; both = enumeration for "
                    "n <= 40; reciprocal_series(200) matches"):
        table = partitions_recurrence(2000)
        oracle = partitions_oracle_dp(2000)
        assert table.values == oracle.values
        for n in range(41):
            counted = partitions_enumerate(n)
            assert table[n] == counted, n
            assert oracle[n] == counted, n
        assert reciprocal_series(200).coeffs == partitions_recurrence(200).values


def test_criterion_6_division_cascade():
    with verdict(6, "cascade at N=500 ends at the unit series; intermediates "
                    "at m in {1, 5, 50} equal the remaining products"):
        order = 500
        for m, q in enumerate(_cascade(closed_form_series(order))):
            if m in (1, 5, 50):
                assert q == list(product_range(m + 1, order, order).coeffs), m
        assert m == order
        assert q == list(one(order).coeffs)


def test_criterion_7_root_structure():
    with verdict(7, "is_zero iff m >= d for d <= 12, m <= 24; multiplicity "
                    "count is complete for m <= 50"):
        # one exact verdict per d covers every primitive d-th root
        assert _first_root_mismatch(12) is None
        for m in range(1, 51):
            total = sum(
                sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
                * (m // d)
                for d in range(1, m + 1)
            )
            assert total == m * (m + 1) // 2, m


def test_criterion_8_recurrence_performance_and_spot_check():
    with verdict(8, "partitions_recurrence(50000) under 10s; p(50000) agrees "
                    "with the independent DP oracle"):
        start = time.perf_counter()
        table = partitions_recurrence(50000)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"recurrence took {elapsed:.2f}s"
        oracle = partitions_oracle_dp(50000)
        assert table[50000] == oracle[50000]
        assert table.values == oracle.values
