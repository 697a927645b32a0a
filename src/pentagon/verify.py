"""End-to-end checks: the division cascade and the root structure.

Dividing the series by (1 - x), then (1 - x^2), and so on strips one
factor per step and must end at exactly 1; each intermediate quotient is
the product over the remaining factors. At a primitive d-th root of
unity every factor with index divisible by d vanishes, so the partial
product over k <= m is zero there exactly when m >= d (its multiplicity
floor(m/d) is not checked). Both the cascade and the vanishing are
decided in exact integers, the roots in Z[x]/(x^d - 1).

The cascade divides a single coefficient list in place, one C-level
pass per factor from x^k up, and yields that list after each step, so
every step is exact for any input. As division by (1 - x^k) is exact
and invertible, the quotient Q_m after step m is the product R_m of the
factors above m exactly when the input is the product P;
``full_verification`` compares the two at m = isqrt(order). Steps 1..m
cost m * order - m(m-1)/2 updates, and ``product_range`` builds R_m by
the number of factors taken, about 2 * order * (order/m), so the check
does about 2 * order^1.5 updates, in this process, where dividing to
the end costs order(order+1)/2. Q_m - R_m is (input - P) times a
unit for every m, so a wrong input shows at the same first exponent
whatever m is. The root check builds
P_m = prod_(k<=m)(1 - x^k) once through the series kernel
``_add_shifted``; summed by exponent mod d, it is exactly P_m in
Z[x]/(x^d - 1). No root is ever evaluated as a complex number: nothing
is floating point.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice
from math import isqrt

from .pentagonal import closed_form_series
from .series import (TruncatedSeries, _add_shifted, _div_binomial_inplace,
                     _require_int, partial_product, product_range)

# The root sweep does about D^3/6 coefficient updates: about 3 s at
# D = 500 and 31 s at D = 1000 on a 2-vCPU Xeon.
_ROOTS_MAX_D = 500


def _cascade(series: TruncatedSeries) -> Iterator[list[int]]:
    """The series, then its quotient by (1 - x^k) for k = 1..order in turn.

    Every step yields the same list, divided in place; a caller copies
    what it keeps before asking for the next step.

    Step k divides in full from x^k, one C-level pass of the kernel with
    no Python-level loop, so each quotient is exact for any input. Steps
    1..m update m*order - m(m-1)/2 coefficients.
    """
    coeffs = list(series.coeffs)
    yield coeffs
    for k in range(1, series.order + 1):
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
    ``expand`` prints; the cascade of the closed form after step
    m = isqrt(order) must equal ``product_range(m + 1, order, order)``,
    the product of the factors above m; the root product must vanish at
    each primitive d-th root exactly from m = d on, for
    d <= ``roots_max_d`` (at most 500). The detail of a failing check
    names its first mismatch. All of it runs in this process.
    """
    _require_int(order, "order", 2)
    _require_int(roots_max_d, "roots_max_d", 1, _ROOTS_MAX_D)
    # needed anyway, and built first: an order no list can hold fails here
    closed = closed_form_series(order)
    m = isqrt(order)
    product = partial_product(order, order).coeffs
    quotient = next(islice(_cascade(closed), m, None))
    remaining = product_range(m + 1, order, order).coeffs
    results = []
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
