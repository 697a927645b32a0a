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
from itertools import count, islice, repeat
from math import isqrt
from operator import add as _int_add, itemgetter, sub as _int_sub
from typing import Any, Iterable


@dataclass(frozen=True)
class TruncatedSeries:
    """An integer power series modulo x^(order+1).

    Entry i of ``coeffs`` is the coefficient of x^i, and the order is
    ``len(coeffs) - 1``, so at least one coefficient is needed.
    Instances are immutable and safe to share.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_int_tuple(self.coeffs, "coeffs")
        if not self.coeffs:
            raise ValueError(f"order must be >= 0, got {self.order}")

    @property
    def order(self) -> int:
        """The truncation order N: the series lives modulo x^(N+1)."""
        return len(self.coeffs) - 1

    def __getitem__(self, exponent: int) -> int:
        _check_index(exponent, self.order, "exponent")
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


def _require_int(value: object, name: str,
                 low: int | None = None, high: int | None = None) -> None:
    # type() rather than isinstance(): True would pass as 1, and a float
    # would reach the kernels as a non-integer coefficient or slice bound
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}, got {value}")


def _require_int_tuple(values: object, name: str) -> None:
    # one C-level pass over the types; a list could still grow or change
    if type(values) is not tuple:
        raise ValueError(f"{name} must be a tuple, got {type(values).__name__}")
    if set(map(type, values)) - {int}:
        bad = next(i for i, v in enumerate(values) if type(v) is not int)
        raise ValueError(f"{name}[{bad}] must be an int, got {values[bad]!r}")


def _check_index(index: object, last: int, name: str) -> None:
    # a negative index would wrap to the top and a slice would return a
    # tuple; IndexError stays the out-of-range type so iteration stops
    if type(index) is not int:
        raise TypeError(f"{name} must be an int in 0..{last}, got {index!r}")
    if not 0 <= index <= last:
        raise IndexError(f"{name} = {index} is outside 0..{last}")


def make_series(coeffs: list[int] | tuple[int, ...], order: int) -> TruncatedSeries:
    """Build a series from low-order coefficients, zero-filling up to x^order."""
    _require_int(order, "order")
    out = _zeros(order)
    if len(coeffs) > order + 1:
        raise ValueError(f"{len(coeffs)} coefficients do not fit in order {order}")
    out[:len(coeffs)] = coeffs
    return TruncatedSeries(tuple(out))


def one(order: int) -> TruncatedSeries:
    """The unit series 1 at the given order."""
    return make_series([1], order)


def monomial(exponent: int, order: int, coeff: int = 1) -> TruncatedSeries:
    """coeff * x^exponent, or the zero series if the exponent exceeds the order."""
    _require_int(exponent, "exponent", 0)
    _require_int(order, "order")
    _require_int(coeff, "coeff")
    out = _zeros(order)
    if exponent <= order:
        out[exponent] = coeff
    return TruncatedSeries(tuple(out))


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Sum, truncated to the smaller order: ``map`` stops with the shorter."""
    return TruncatedSeries(tuple(map(_int_add, a.coeffs, b.coeffs)))


def sub(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Difference, truncated to the smaller order like ``add``."""
    return TruncatedSeries(tuple(map(_int_sub, a.coeffs, b.coeffs)))


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product truncated to the smaller order: one pass over b per nonzero a_i."""
    out = [0] * min(len(a.coeffs), len(b.coeffs))
    for e, c in enumerate(a.coeffs[:len(out)]):
        if c:
            _add_shifted(out, e, c, b.coeffs)
    return TruncatedSeries(tuple(out))


def _add_shifted(out: list[int], e: int, c: int, a: Iterable[int]) -> None:
    """out += c * x^e * a modulo x^len(out), for c != 0, in one shifted C-level pass.

    The one in-place multiplication kernel. An add or a subtract for
    +-1, any other c multiplied in exactly. ``a`` must hold at least
    len(out) - e entries, so the slice keeps its length; it may be
    ``out`` itself, as every new entry is computed before any is stored.
    """
    if c == 1:
        out[e:] = map(_int_add, out[e:], a)
    elif c == -1:
        out[e:] = map(_int_sub, out[e:], a)
    else:
        out[e:] = [t + c * h for t, h in zip(out[e:], a)]


def mul_binomial(a: TruncatedSeries, k: int, c: int) -> TruncatedSeries:
    """Multiply by the sparse factor (1 + c*x^k) in O(order) coefficient ops."""
    _require_int(k, "k", 1)
    _require_int(c, "c")
    out = list(a.coeffs)
    if c:
        _add_shifted(out, k, c, a.coeffs)
    return TruncatedSeries(tuple(out))


def _div_binomial_inplace(coeffs: list[int], k: int, start: int | None = None) -> None:
    """coeffs /= (1 - x^k) modulo x^len(coeffs): q_i = a_i + q_(i-k).

    Updates begin at ``start`` >= k, by default k, below which q_i = a_i.
    A later start is exact when every entry below it already holds q_i:
    the verify cascade passes 2k + 1 for a list 1 + 0*x + ... + 0*x^k +
    O(x^(k+1)), whose q_i is a_i + 0 up to x^(2k); ``_tail_coeffs``
    passes k past a head. The partition oracle divides from k.

    One C-level pass: the entries from start are cut off, and ``extend``
    appends each a_i + q_(i-k), read through an iterator over the list
    itself, set to start - k in O(1) by ``__setstate__``. A list iterator
    checks the list's length at every step, so it reaches each q_i k
    entries after ``extend`` appends it. A start below k raises
    ValueError before the list is touched: q_(start-k) would not exist,
    and ``__setstate__`` would clamp a negative index to 0 (3.12 and
    before) or leave the iterator exhausted (3.13).
    """
    if start is None:
        start = k
    if start < k:
        raise ValueError(f"start must be >= k, got start={start}, k={k}")
    back = iter(coeffs)
    back.__setstate__(start - k)
    rest = coeffs[start:]
    del coeffs[start:]
    coeffs.extend(map(_int_add, rest, back))


def div_binomial(a: TruncatedSeries, k: int) -> TruncatedSeries:
    """Exact quotient by the unit (1 - x^k)."""
    _require_int(k, "k", 1)
    out = list(a.coeffs)
    _div_binomial_inplace(out, k)
    return TruncatedSeries(tuple(out))


def _div_sparse(values: Iterable[int], terms: Iterable[tuple[int, int]]) -> list[int]:
    """values / (1 + the sum of c*x^e over terms), to as many terms as values.

    The one sparse long division, behind ``partitions._reciprocal_coeffs``.
    ``values`` is read one entry per quotient entry, so it may be a
    stream that is still being computed. Every e must be >= 1, so the
    divisor starts with 1 and the quotient is exact, and every c must be
    1 or -1, else ValueError, raised before any value is read; terms past
    the last value are never read. q_m is a_m less the sum of c * q_(m-e)
    over the e <= m. While q holds q_0..q_(m-1), q[-e] is q_(m-e), so one
    ``itemgetter`` per sign gathers the terms with c = -1 and with c = +1,
    rebuilt whenever m reaches a new offset. Both gatherers start with
    index 0 twice: an itemgetter of one index returns a bare value, not a
    tuple, and the 2 * q_0 reads cancel.
    """
    arrivals: dict[int, list[int]] = {}
    for e, c in terms:
        if c != 1 and c != -1:
            raise ValueError(f"term x^{e}: coefficient must be 1 or -1, got {c!r}")
        arrivals.setdefault(e, []).append(c)
    values = iter(values)
    q = list(islice(values, 1))
    added, subtracted = [0, 0], [0, 0]
    take_added = take_subtracted = itemgetter(0, 0)
    for m, a in enumerate(values, 1):
        if m in arrivals:
            for c in arrivals[m]:
                (added if c == -1 else subtracted).append(-m)
            take_added = itemgetter(*added)
            take_subtracted = itemgetter(*subtracted)
        q.append(a + sum(take_added(q)) - sum(take_subtracted(q)))
    return q


def _zeros(order: int) -> list[int]:
    """order + 1 zeros, or ValueError naming an order below 0 or too large to hold."""
    _require_int(order, "order", 0)
    try:
        return [0] * (order + 1)
    except (MemoryError, OverflowError):
        raise ValueError(f"order: {order} is too large to hold") from None


def _divisor_sums(n: int) -> list[int]:
    """sigma(0..n): entry m is the sum of the divisors of m, and entry 0 is 0.

    A sieve over the divisor pairs t * j = m with t <= j, so t <= sqrt(n):
    two C-level passes per t, one adding t to every m = t*j with j >= t,
    one adding the cofactor j to every m = t*j with j > t.
    """
    sums = [0] * (n + 1)
    for t in range(1, isqrt(n) + 1):
        sums[t * t::t] = map(_int_add, sums[t * t::t], repeat(t))
        sums[t * (t + 1)::t] = map(_int_add, sums[t * (t + 1)::t], count(t + 1))
    return sums


# exponents per block of the full product; 64 to 512 time the same
_BLOCK = 128


def product_range(first: int, last: int, order: int) -> TruncatedSeries:
    """prod of (1 - x^k) for k = first..last, modulo x^(order+1).

    An empty range (last < first) gives the unit series. Factors with
    k > order are identities at this order and are skipped. The factors
    are applied largest first, so before factor k the running product is
    1 plus terms of degree > k: multiplying by (1 - x^k) subtracts x^k
    and x^k times those terms, which start at degree 2k + 1, so the
    sweep decrements x^k and subtracts a copy of the list from x^(k+1)
    up, shifted to start at x^(2k+1); the copy holds just the
    order - 2k old entries that land below x^(order+1), all read before
    any is stored. Factor k thus costs max(0, order - 2k) updates past
    its decrement: about order^2/4 in all, where applying the factors
    smallest first costs about order^2/2. An order too large for a list
    raises ValueError.

    The full product P (first == 1 and last >= order) comes from its
    logarithmic derivative instead, as in Euler's E175: x*P'/P is
    -(the sum of k*x^k/(1 - x^k)) = -(the sum of sigma(n)*x^n), so
    n*p_n = -(the sum of sigma(n - j)*p_j over j < n). The exponents go
    in blocks of ``_BLOCK``, and ``acc`` keeps the block's sums. At the
    start of block [n0, n1) the nonzero p_j with j < n0 are grouped by
    value; each p_j reads one row sigma[n0 - j:n1 - j], ``sum`` adds a
    group's rows column by column in C, and one ``_add_shifted`` pass
    adds p_j times those column sums. Within the block, each nonzero p_n
    adds p_n * sigma to the sums after it. A sum that n does not divide
    raises ArithmeticError. No pentagonal number and no coefficient
    value is assumed, so the oracle does not rest on Euler's theorem; a
    wrong or dense result would only cost more rows and passes.
    """
    _require_int(first, "first", 1)
    _require_int(last, "last")
    _require_int(order, "order")
    cur = _zeros(order)
    cur[0] = 1
    if first == 1 and last >= order:
        sums = _divisor_sums(order)
        sigma = sums[1:]
        support = {1: [0]}
        for n0 in range(1, order + 1, _BLOCK):
            n1 = min(n0 + _BLOCK, order + 1)
            acc = [0] * (n1 - n0)
            for c, js in support.items():
                rows = [sums[n0 - j:n1 - j] for j in js]
                _add_shifted(acc, 0, c, map(sum, zip(*rows)))
            for i, n in enumerate(range(n0, n1)):
                c, r = divmod(-acc[i], n)
                if r:
                    raise ArithmeticError(f"x^{n}: {n} does not divide {-acc[i]}")
                if c:
                    cur[n] = c
                    support.setdefault(c, []).append(n)
                    if n + 1 < n1:
                        _add_shifted(acc, i + 1, c, sigma)
    else:
        for k in range(min(last, order), first - 1, -1):
            cur[k] -= 1
            _add_shifted(cur, 2 * k + 1, -1, cur[k + 1:order - k + 1])
    return TruncatedSeries(tuple(cur))


def partial_product(m: int, order: int) -> TruncatedSeries:
    """prod of (1 - x^k) for k = 1..m, modulo x^(order+1).

    The oracle every other representation in the package is checked
    against. With m >= order it is ``product_range``'s full product, read
    off the product's logarithmic derivative block by block: the sums
    from earlier blocks are gathered as rows of sigma and added in C, so
    the Python-level passes run over one block, not the whole series. The
    tests check it against the ascending chain of binomial multiplies for
    several block lengths. With m < order it is the single largest-first
    sweep, about order^2/4 updates at most.
    """
    _require_int(m, "m", 1)
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
        try:
            return int(value)
        except ValueError as exc:  # more digits than the interpreter converts
            raise ValueError(f"{field}: {exc}") from None
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

    Every number must be an int or a decimal string, the order is >= 0,
    a dense list holds order + 1 coefficients, and sparse exponents lie
    in 0..order without repeats; anything else, a missing field, a field
    of the wrong JSON type or both ``coeffs`` and ``terms`` included,
    raises ``ValueError``.
    """
    order = _json_int(_json_field(obj, "order"), "order")
    if "coeffs" not in obj and "terms" not in obj:
        raise ValueError("coeffs or terms: missing")
    if "coeffs" in obj and "terms" in obj:
        raise ValueError("coeffs and terms: expected one of them, got both")
    if order < 0:
        raise ValueError(f"order: must be >= 0, got {order}")
    if "coeffs" in obj:
        coeffs = _json_field(obj, "coeffs", list)
        if len(coeffs) != order + 1:
            raise ValueError(f"coeffs: need {order + 1} for order {order}, "
                             f"got {len(coeffs)}")
        return TruncatedSeries(tuple(_json_int(c, "coeffs") for c in coeffs))
    out = _zeros(order)
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
    return TruncatedSeries(tuple(out))


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
