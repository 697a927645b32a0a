"""Exact truncated formal power series over the integers.

A series of order N holds the coefficients of x^0..x^N and all arithmetic
is performed modulo x^(N+1). Coefficients are plain Python ints, so there
is no overflow and no rounding anywhere in this module. Operations mixing
two orders truncate to the smaller one, matching the quotient-ring
semantics.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import add as _int_add, sub as _int_sub
from typing import Any


@dataclass(frozen=True)
class TruncatedSeries:
    """An integer power series modulo x^(order+1).

    ``coeffs`` has length ``order + 1``; entry i is the coefficient of x^i.
    Instances are immutable and safe to share.
    """

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.order < 0:
            raise ValueError(f"order must be >= 0, got {self.order}")
        if len(self.coeffs) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} coefficients for order {self.order}, "
                f"got {len(self.coeffs)}"
            )

    def __getitem__(self, exponent: int) -> int:
        return self.coeffs[exponent]

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        return add(self, other)

    def __sub__(self, other: TruncatedSeries) -> TruncatedSeries:
        return sub(self, other)

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        return mul(self, other)

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        head = format_series(self)
        if len(head) > 60:
            head = head[:57] + "..."
        return f"TruncatedSeries(order={self.order}, {head})"

    def nonzero_terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending, zeros omitted."""
        return [(e, c) for e, c in enumerate(self.coeffs) if c]


def _wrap(coeffs: list[int], order: int) -> TruncatedSeries:
    return TruncatedSeries(order, tuple(coeffs))


def _require_int(value: object, name: str) -> None:
    # type() rather than isinstance(): True would pass as 1, and a float
    # would reach the kernels as a non-integer coefficient or slice bound
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def make_series(coeffs: list[int] | tuple[int, ...], order: int) -> TruncatedSeries:
    """Build a series from low-order coefficients, zero-filling up to x^order."""
    _require_int(order, "order")
    bad = next((i for i, c in enumerate(coeffs) if type(c) is not int), None)
    if bad is not None:
        raise ValueError(f"coeffs[{bad}] must be an int, got {coeffs[bad]!r}")
    if len(coeffs) > order + 1:
        raise ValueError(
            f"{len(coeffs)} coefficients do not fit in order {order}"
        )
    padded = list(coeffs) + [0] * (order + 1 - len(coeffs))
    return _wrap(padded, order)


def one(order: int) -> TruncatedSeries:
    """The unit series 1 at the given order."""
    return make_series([1], order)


def monomial(exponent: int, order: int, coeff: int = 1) -> TruncatedSeries:
    """coeff * x^exponent, or the zero series if the exponent exceeds the order."""
    _require_int(exponent, "exponent")
    _require_int(order, "order")
    _require_int(coeff, "coeff")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    out = [0] * (order + 1)
    if exponent <= order:
        out[exponent] = coeff
    return _wrap(out, order)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    order = min(a.order, b.order)
    n = order + 1
    return _wrap(list(map(_int_add, a.coeffs[:n], b.coeffs[:n])), order)


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    order = min(a.order, b.order)
    n = order + 1
    return _wrap(list(map(_int_sub, a.coeffs[:n], b.coeffs[:n])), order)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Schoolbook convolution, truncated to the smaller order."""
    order = min(a.order, b.order)
    n = order + 1
    out = [0] * n
    bc = b.coeffs
    for i, ai in enumerate(a.coeffs[:n]):
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] += ai * bc[j]
    return _wrap(out, order)


def _mul_binomial_inplace(coeffs: list[int], k: int, c: int) -> None:
    """coeffs *= (1 + c*x^k) modulo x^len(coeffs).

    The right-hand side is built in full before the slice is assigned, so
    every term reads the old coefficients; ``map`` stops with coeffs[k:].
    """
    if c == -1:
        coeffs[k:] = map(_int_sub, coeffs[k:], coeffs)
    elif c == 1:
        coeffs[k:] = map(_int_add, coeffs[k:], coeffs)
    else:
        coeffs[k:] = [t + c * h for t, h in zip(coeffs[k:], coeffs)]


def mul_binomial(a: TruncatedSeries, k: int, c: int) -> TruncatedSeries:
    """Multiply by the sparse factor (1 + c*x^k) in O(order) coefficient ops."""
    _require_int(k, "k")
    _require_int(c, "c")
    if k < 1:
        raise ValueError(f"binomial exponent must be >= 1, got {k}")
    out = list(a.coeffs)
    _mul_binomial_inplace(out, k, c)
    return _wrap(out, a.order)


def _div_binomial_inplace(coeffs: list[int], k: int, start: int | None = None) -> None:
    """coeffs /= (1 - x^k) modulo x^len(coeffs): q_i = a_i + q_(i-k).

    Block [i, i+k) needs only the block before it, which is already the
    quotient, so each block is one C-level map. Updates begin at
    ``start``, by default k, below which q_i = a_i. A later start is exact
    when every entry below it already holds q_i: the verify cascade passes
    2k + 1 for a list 1 + 0*x + ... + 0*x^k + O(x^(k+1)), whose q_i is
    a_i + 0 up to x^(2k), so its first block reads x^(k+1)..x^(2k) as is.
    """
    for i in range(k if start is None else start, len(coeffs), k):
        coeffs[i:i + k] = map(_int_add, coeffs[i:i + k], coeffs[i - k:i])


def div_binomial(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """Exact quotient by the unit (1 - x^k)."""
    _require_int(k, "k")
    if k < 1:
        raise ValueError(f"binomial exponent must be >= 1, got {k}")
    out = list(a.coeffs)
    _div_binomial_inplace(out, k)
    return _wrap(out, a.order)


def product_range(first: int, last: int, order: int) -> TruncatedSeries:
    """prod of (1 - x^k) for k = first..last, modulo x^(order+1).

    An empty range (last < first) gives the unit series. Factors with
    k > order are identities at this order and are skipped. The factors
    are applied largest first, so before factor k the running product is
    1 plus terms of degree > k: multiplying by (1 - x^k) subtracts x^k
    and x^k times those terms, which start at degree 2k + 1. Factor k
    thus costs 1 + max(0, order - 2k) updates: about order^2/4 in all,
    where applying the factors smallest first costs about order^2/2.
    """
    _require_int(first, "first")
    _require_int(last, "last")
    _require_int(order, "order")
    if first < 1:
        raise ValueError(f"factor range must start at >= 1, got {first}")
    cur = [1] + [0] * order
    for k in range(min(last, order), first - 1, -1):
        cur[k] -= 1
        cur[2 * k + 1:] = map(_int_sub, cur[2 * k + 1:], cur[k + 1:])
    return _wrap(cur, order)


def partial_product(m: int, order: int) -> TruncatedSeries:
    """prod of (1 - x^k) for k = 1..m, modulo x^(order+1).

    The brute-force expansion of the full product, and the oracle every
    other representation in the package is checked against.
    """
    _require_int(m, "m")
    if m < 1:
        raise ValueError(f"need at least one factor, got m={m}")
    return product_range(1, m, order)


# --- export formats ---------------------------------------------------------
#
# Coefficients travel as decimal strings so arbitrarily large integers
# survive JSON round-trips in any consumer.


def to_dense_json(s: TruncatedSeries) -> dict:
    return {"order": s.order, "coeffs": [str(c) for c in s.coeffs]}


def to_sparse_json(s: TruncatedSeries) -> dict:
    return {
        "order": s.order,
        "terms": [{"exp": e, "coeff": str(c)} for e, c in s.nonzero_terms()],
    }


def _json_int(value: object, field: str) -> int:
    # not int(value): it truncates 2.9, takes True as 1 and reads "1_0" and " 1"
    if type(value) is int or (
            isinstance(value, str) and re.fullmatch(r"[+-]?[0-9]+", value)):
        return int(value)
    raise ValueError(f"{field}: expected an int or a decimal string, got {value!r}")


def _json_field(obj: object, field: str, kind: type = object) -> Any:
    if not isinstance(obj, dict):
        raise ValueError(
            f"{field}: expected a JSON object that has it, got {type(obj).__name__}")
    if field not in obj:
        raise ValueError(f"{field}: missing")
    # a str where a list belongs would be read one character at a time
    if not isinstance(obj[field], kind):
        raise ValueError(f"{field}: expected a {kind.__name__}, "
                         f"got {type(obj[field]).__name__}")
    return obj[field]


def series_from_json(obj: dict) -> TruncatedSeries:
    """Parse either the dense or the sparse schema.

    Every number must be an int or a decimal string, and sparse exponents
    lie in 0..order without repeats; anything else, a missing field or a
    field of the wrong JSON type included, raises ``ValueError``.
    """
    order = _json_int(_json_field(obj, "order"), "order")
    if "coeffs" in obj:
        coeffs = _json_field(obj, "coeffs", list)
        return _wrap([_json_int(c, "coeffs") for c in coeffs], order)
    if "terms" not in obj:
        raise ValueError("coeffs or terms: missing")
    if order < 0:
        raise ValueError(f"order: must be >= 0, got {order}")
    try:
        out = [0] * (order + 1)
    except (MemoryError, OverflowError):
        raise ValueError(f"order: {order} is too large to hold") from None
    seen: set[int] = set()
    for term in _json_field(obj, "terms", list):
        e = _json_int(_json_field(term, "exp"), "exp")
        if e < 0:
            raise ValueError(f"term exponent {e} is negative")
        if e > order:
            raise ValueError(f"term exponent {e} exceeds order {order}")
        if e in seen:
            raise ValueError(f"duplicate term exponent {e}")
        seen.add(e)
        out[e] = _json_int(_json_field(term, "coeff"), "coeff")
    return _wrap(out, order)


def format_series(s: TruncatedSeries) -> str:
    """Render ascending by exponent, e.g. ``1 - x - x^2 + x^5``."""
    parts: list[str] = []
    for e, c in s.nonzero_terms():
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            body = ("x" if e == 1 else f"x^{e}") if mag == 1 else (
                f"{mag}x" if e == 1 else f"{mag}x^{e}"
            )
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"
