"""Generalized pentagonal numbers and the closed form they describe.

The product prod (1 - x^k) expands into a series whose nonzero
coefficients sit at 0 and at the generalized pentagonal numbers
n(3n -+ 1)/2, with coefficient (-1)^n at both members of the nth pair.
This module holds the exponent formulas, the sign rule, and the direct
construction of that series, built with no multiplication at all so it
can cross-check the product expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, takewhile
from typing import Iterator

from .series import TruncatedSeries, _require_int, _zeros


def g_minus(n: int) -> int:
    """n(3n - 1)/2, the smaller exponent of the nth pair."""
    return n * (3 * n - 1) // 2


def g_plus(n: int) -> int:
    """n(3n + 1)/2, the larger exponent of the nth pair."""
    return n * (3 * n + 1) // 2


@dataclass(frozen=True)
class PentagonalPair:
    """Index n with its two exponents and their common sign (-1)^n."""

    n: int
    g_minus: int
    g_plus: int
    sign: int

    def __post_init__(self) -> None:
        _require_int(self.n, "n", 1)


def pentagonal_pair(n: int) -> PentagonalPair:
    """The nth exponent pair; n = 0 is rejected, the constant term has no index."""
    return PentagonalPair(n, g_minus(n), g_plus(n), -1 if n % 2 else 1)


def pentagonal_pairs_upto(limit: int) -> Iterator[PentagonalPair]:
    """All pairs whose smaller exponent is <= limit, ascending in n."""
    _require_int(limit, "limit")
    return map(pentagonal_pair, takewhile(lambda n: g_minus(n) <= limit, count(1)))


def pentagonal_terms_upto(order: int) -> list[tuple[int, int]]:
    """(exponent, sign) for every nonzero term with exponent <= order.

    Starts with (0, +1), then walks the pairs in index order. Within a
    pair the smaller exponent comes first, and g_plus(n) < g_minus(n+1)
    for every n, so the walk emits strictly ascending exponents without
    sorting.
    """
    _require_int(order, "order", 0)
    terms = [(0, 1)]
    for pair in pentagonal_pairs_upto(order):
        terms.append((pair.g_minus, pair.sign))
        if pair.g_plus <= order:
            terms.append((pair.g_plus, pair.sign))
    return terms


def closed_form_series(order: int) -> TruncatedSeries:
    """The sparse expansion of prod (1 - x^k), assembled term by term."""
    coeffs = _zeros(order)
    for exponent, sign in pentagonal_terms_upto(order):
        coeffs[exponent] = sign
    return TruncatedSeries(tuple(coeffs))
