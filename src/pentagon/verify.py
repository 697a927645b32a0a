"""End-to-end checks: the division cascade and the root structure.

Dividing the series by (1 - x), then (1 - x^2), and so on strips one
factor per step and must end at exactly 1; each intermediate quotient is
the product over the remaining factors. At a primitive d-th root of
unity every factor with index divisible by d vanishes, so the partial
product over k <= m has that root with multiplicity floor(m/d). Both
facts are decided in exact integers, the roots in Z[x]/(x^d - 1).

One cascade serves every consumer. It divides a single coefficient list
in place, one blockwise division per factor, and yields that list after
each step. Before step k a correct quotient is 1 - x^k + O(x^(k+1)), so
the division only clears x^k and updates the coefficients above x^(2k):
about order^2/4 updates in all instead of order^2/2, and a single
assignment for k > order/2. A list without that head, which only a wrong
quotient has, is divided in full from there on, so every step is exact.
Consumers: ``division_cascade`` fingerprints each quotient,
``cascade_quotient`` copies the step it is asked for, and
``full_verification`` compares the sampled quotients with the remaining
products as exact coefficient tuples. Those products come from one
descending sweep of binomial multiplications, largest factor first, that
ends at the full product, and each root order d takes one running
product of rotate-and-subtract steps that decides every primitive d-th
root at once.
"""

from __future__ import annotations

import cmath
import hashlib
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache
from math import gcd, pi, prod
from operator import sub

from .pentagonal import closed_form_series
from .series import (TruncatedSeries, _div_binomial_inplace, _require_int,
                     mul_binomial, product_range)


def series_fingerprint(s: TruncatedSeries) -> str:
    """Stable content hash of a series: order plus decimal coefficients."""
    payload = f"order={s.order};" + ",".join(str(c) for c in s.coeffs)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class CascadeStep:
    k: int
    fingerprint: str


@dataclass(frozen=True)
class CascadeReport:
    order: int
    steps: tuple[CascadeStep, ...]
    final_is_unity: bool


def _cascade(series: TruncatedSeries) -> Iterator[list[int]]:
    """The series, then its quotient by (1 - x^k) for k = 1..order in turn.

    Every step yields the same list, divided in place; a caller copies
    what it keeps before asking for the next step.

    While the list is 1 + 0*x + ... + 0*x^(k-1) + O(x^k), as every
    remaining product is, and its x^k term is -1, step k sets that term
    to 0 and divides from x^(2k+1) up: q_i = a_i + q_(i-k) adds only the
    zeros at x^1..x^k to x^(k+1)..x^(2k), so those entries are already
    the quotient's, and the result starts 1 + 0*x + ... + 0*x^k again.
    The first step that finds another head divides in full, as does
    every step after it, so each quotient is exact for any input.
    """
    coeffs = list(series.coeffs)
    yield coeffs
    unit_head = coeffs[0] == 1
    for k in range(1, series.order + 1):
        if unit_head and coeffs[k] == -1:
            coeffs[k] = 0
            _div_binomial_inplace(coeffs, k, 2 * k + 1)
        else:
            unit_head = False
            _div_binomial_inplace(coeffs, k)
        yield coeffs


def division_cascade(order: int) -> CascadeReport:
    """Divide the closed form by (1 - x^k) for k = 1..order, in order.

    Quotients are recorded as fingerprints, comparable against any
    independently built series.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    quotients = _cascade(closed_form_series(order))
    q = next(quotients)
    steps = []
    for k, q in enumerate(quotients, 1):
        steps.append(CascadeStep(k, series_fingerprint(
            TruncatedSeries(order, tuple(q)))))
    return CascadeReport(order, tuple(steps), q == [1] + [0] * order)


def cascade_quotient(order: int, upto_k: int) -> TruncatedSeries:
    """The quotient after dividing out factors 1..upto_k, for spot checks.

    Past upto_k = order every factor is gone and the quotient stays 1.
    """
    _require_int(upto_k, "upto_k")
    if upto_k < 0:
        raise ValueError(f"upto_k must be >= 0, got {upto_k}")
    for k, q in enumerate(_cascade(closed_form_series(order))):
        if k >= upto_k:
            break
    return TruncatedSeries(order, tuple(q))


def root_multiplicity(d: int, m: int) -> int:
    """Multiplicity of a primitive d-th root of unity in prod_(k<=m)(1 - x^k).

    One factor per index k divisible by d, hence floor(m/d).
    """
    if d < 1 or m < 1:
        raise ValueError("d and m must both be >= 1")
    return m // d


@dataclass(frozen=True)
class RootEntry:
    """A primitive d-th root of unity, indexed by j with gcd(j, d) = 1."""

    d: int
    j: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"root order must be >= 1, got {self.d}")
        if gcd(self.j, self.d) != 1:
            raise ValueError(f"j = {self.j} is not coprime to d = {self.d}")

    def multiplicity(self, m: int) -> int:
        return root_multiplicity(self.d, m)


def primitive_root_entries(d: int) -> list[RootEntry]:
    """All primitive d-th roots, one entry per residue coprime to d."""
    return [RootEntry(d, j) for j in range(1, d + 1) if gcd(j, d) == 1]


def _subtract_rotated(v: list[int], k: int) -> list[int]:
    """v * (1 - x^k) in Z[x]/(x^d - 1), d = len(v): v minus v rotated by k."""
    s = len(v) - k % len(v)
    return list(map(sub, v, v[s:] + v[:s]))


def _vanishes_at_primitive_roots(d: int, m_max: int) -> Iterator[bool]:
    """For m = 1..m_max, whether P_m = prod_(k<=m)(1 - x^k) is 0 at zeta_d.

    G = prod_(e|d, e<d)(1 - x^e) is 0 at the other d-th roots, all simple, so
    G * P_m = 0 in Z[x]/(x^d - 1) iff P_m is 0 at every (conjugate) zeta_d.
    """
    v = [1] + [0] * (d - 1)
    for e in range(1, d):
        if d % e == 0:
            v = _subtract_rotated(v, e)
    for k in range(1, m_max + 1):
        v = _subtract_rotated(v, k)
        yield not any(v)


def eval_partial_product_at_root(d: int, j: int, m: int) -> tuple[float, bool]:
    """(|prod_(k<=m)(1 - zeta^k)|, is_zero) at zeta = exp(2*pi*i*j/d).

    is_zero is exact; the float magnitude, with angles reduced mod d in
    integers so a vanishing factor is exactly 0.0, is for information.
    """
    RootEntry(d, j)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    *_, is_zero = _vanishes_at_primitive_roots(d, m)
    return abs(prod(1 - cmath.exp(2j * pi * (j * k % d) / d)
                    for k in range(1, m + 1))), is_zero


def _first_root_mismatch(max_d: int, m_max: int) -> tuple[int, int] | None:
    """First (d, m) whose exact zero test at zeta_d disagrees with m >= d."""
    for d in range(1, max_d + 1):
        for m, is_zero in enumerate(_vanishes_at_primitive_roots(d, m_max), 1):
            if is_zero != (m >= d):
                return d, m
    return None


@cache
def _multiplicity_count_mismatch() -> int | None:
    """First m <= 50 where phi(d) * floor(m/d) summed over d <= m is not m(m+1)/2."""
    phi = [0] + [sum(gcd(j, d) == 1 for j in range(1, d + 1)) for d in range(1, 51)]
    return next((m for m in range(1, 51)
                 if sum(phi[d] * root_multiplicity(d, m) for d in range(1, m + 1))
                 != m * (m + 1) // 2), None)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def full_verification(order: int, roots_max_d: int = 12) -> list[CheckResult]:
    """The whole suite at one order: closed form, cascade, roots.

    Returns one result per check group; the detail of a failing group
    pinpoints the first mismatch found.
    """
    _require_int(order, "order")
    _require_int(roots_max_d, "roots_max_d")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    if roots_max_d < 1:
        raise ValueError(f"roots_max_d must be >= 1, got {roots_max_d}")
    results = []

    # The remaining products after the sampled steps and the full
    # product, built from 1 by multiplication in one descending sweep.
    sampled = [m for m in (1, 5, 50) if m <= order]
    product = product_range(sampled[-1] + 1, order, order)
    rests = {sampled[-1]: product}
    for k in range(sampled[-1], 0, -1):
        product = mul_binomial(product, k, -1)
        if k - 1 in sampled:
            rests[k - 1] = product

    closed = closed_form_series(order)
    if closed.coeffs == product.coeffs:
        results.append(CheckResult(
            "closed form equals product", True, f"order {order}"))
    else:
        e = next(i for i, (a, b) in enumerate(zip(closed.coeffs, product.coeffs))
                 if a != b)
        results.append(CheckResult(
            "closed form equals product", False,
            f"first mismatch at x^{e}: closed form {closed[e]}, product {product[e]}"))

    bad = None
    for m, q in enumerate(_cascade(closed)):
        if m in rests and tuple(q) != rests[m].coeffs:
            bad = m
            break
    if bad is not None:
        results.append(CheckResult(
            "division cascade", False,
            f"quotient after step {bad} differs from the remaining product"))
    elif q == [1] + [0] * order:
        results.append(CheckResult(
            "division cascade", True,
            f"order {order}, final quotient 1, intermediates at {sampled}"))
    else:
        results.append(CheckResult(
            "division cascade", False, "final quotient is not 1"))

    m_max = 2 * roots_max_d
    mismatch = _first_root_mismatch(roots_max_d, m_max)
    count_bad = _multiplicity_count_mismatch()
    if mismatch is not None:
        d, m = mismatch
        detail = f"zeta(d={d}, j=1) at m={m}: is_zero={m < d}, expected {m >= d}"
    elif count_bad is not None:
        detail = f"multiplicity count mismatch at m={count_bad}"
    else:
        detail = f"d <= {roots_max_d}, m <= {m_max}, multiplicity sums to m <= 50"
    results.append(CheckResult(
        "root structure", mismatch is None and count_bad is None, detail))

    return results
