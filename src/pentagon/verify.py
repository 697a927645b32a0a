"""End-to-end checks: the division cascade and the root structure.

Dividing the series by (1 - x), then (1 - x^2), and so on strips one
factor per step and must end at exactly 1; each intermediate quotient is
the product over the remaining factors. At a primitive d-th root of
unity every factor with index divisible by d vanishes, so the partial
product over k <= m is zero there exactly when m >= d (its multiplicity
floor(m/d) is not checked). Both the cascade and the vanishing are
decided in exact integers, the roots in Z[x]/(x^d - 1).

The cascade divides a single coefficient list in place, one C-level
pass per factor, and yields that list after each step. Before step
k a correct quotient is 1 - x^k + O(x^(k+1)), so the division only
clears x^k and updates the coefficients above x^(2k): about order^2/4
updates in all instead of order^2/2, and a single assignment for
k > order/2. A list without that head, which only a wrong quotient has,
is divided in full from there on, so every step is exact. As division by
(1 - x^k) is exact and invertible, the quotient Q_m after step m is the
product R_m of the factors above m exactly when the input is the
product P; ``full_verification`` compares the two, R_m built by a forked
worker while this process divides (in one process m = order, R_m = 1).
Q_m - R_m is (input - P) times a unit for every m, so a wrong input
shows at the same first exponent whatever m is. The root check builds
P_m = prod_(k<=m)(1 - x^k) once through the series kernel
``_add_shifted``; summed by exponent mod d, it is exactly P_m in
Z[x]/(x^d - 1). No root is ever evaluated as a complex number: nothing
is floating point.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice

from ._worker import _forked, _use_worker
from .pentagonal import closed_form_series
from .series import (TruncatedSeries, _add_shifted, _div_binomial_inplace,
                     _require_int, _zeros, partial_product, product_range)

# The root sweep does about D^3/6 coefficient updates: about 3 s at
# D = 500 and 31 s at D = 1000 on a 2-vCPU Xeon.
_ROOTS_MAX_D = 500


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

    On the head path the steps do about order^2/4 coefficient updates in
    all, against order^2/2 for full divisions, each step one C-level
    pass of the kernel with no Python-level loop.
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


def _first_root_mismatch(max_d: int) -> tuple[int, int] | None:
    """First (d, m) whose exact zero test at zeta_d disagrees with m >= d.

    P_m = prod_(k<=m)(1 - x^k) is built once, exactly, one shifted
    subtract per factor; its sums over exponents mod d are P_m in
    Z[x]/(x^d - 1). If P_m is 0 at a primitive d-th root, some k <= m
    has d | k, and x^d - 1 divides (1 - x^k). So P_m = 0 in
    Z[x]/(x^d - 1) iff it is 0 at zeta_d, and one verdict per d covers
    every primitive d-th root. P_m divides P_(m+1), so a zero at m stays
    zero above m and a nonzero at m was nonzero below it: the verdicts
    at m = d - 1 and m = d decide every m.
    """
    product = [1]
    for d in range(1, max_d + 1):
        if not any(sum(product[r::d]) for r in range(d)):
            return d, d - 1
        product += [0] * d
        _add_shifted(product, d, -1, product)
        if any(sum(product[r::d]) for r in range(d)):
            return d, d
    return None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def full_verification(order: int, roots_max_d: int = 12) -> list[CheckResult]:
    """The whole suite at one order: closed form, cascade, roots.

    Each check is one exact verdict on its own input. The closed form
    is compared with ``partial_product(order, order)``, the product
    ``expand`` prints; the cascade of the closed form after step m must
    equal the product of the factors above m (m = order, that product
    1, in one process); the root product must vanish at each primitive
    d-th root exactly from m = d on, for d <= ``roots_max_d`` (at most
    500). The detail of a failing check names its first mismatch.
    """
    _require_int(order, "order", 2)
    _require_int(roots_max_d, "roots_max_d", 1, _ROOTS_MAX_D)
    _zeros(order)  # an order no list can hold fails before any fork
    # cascade step k and sweep factor k each update max(0, order - 2k)
    # entries: m * (order - m - 1) in steps 1..m, for m <= order/2
    half = order // 2
    total = half * (order - half - 1)
    m = (min(range(half + 1), key=lambda j: abs(total - 2 * j * (order - j - 1)))
         if _use_worker(total) else order)

    def far_end() -> tuple[int, ...]:
        return product_range(m + 1, order, order).coeffs

    results = []
    with _forked((far_end,)) if m < order else nullcontext((far_end(),)) as answers:
        product = partial_product(order, order).coeffs
        closed = closed_form_series(order)
        quotient = next(islice(_cascade(closed), m, None))
        (remaining,) = answers
    e = next((i for i, a in enumerate(closed.coeffs) if a != product[i]), None)
    results.append(CheckResult("closed form equals product", e is None, (
        f"order {order}" if e is None else
        f"first mismatch at x^{e}: closed form {closed[e]}, product {product[e]}")))

    e = next((i for i, a in enumerate(quotient) if a != remaining[i]), None)
    results.append(CheckResult("division cascade", e is None, (
        f"order {order}, final quotient 1" if e is None else
        f"final quotient is not 1: first wrong term at x^{e}")))

    mismatch = _first_root_mismatch(roots_max_d)
    if mismatch is None:
        detail = f"d <= {roots_max_d}, m <= {2 * roots_max_d}"
    else:
        d, m = mismatch
        detail = f"zeta(d={d}) at m={m}: is_zero={m < d}, expected {m >= d}"
    results.append(CheckResult("root structure", mismatch is None, detail))

    return results
