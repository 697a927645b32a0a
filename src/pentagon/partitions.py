"""Partition counts from the reciprocal side of the expansion.

Inverting the sparse series gives the generating function of the
partition numbers p(n), and the sparsity turns inversion into a
recurrence with O(sqrt(n)) terms per value. The series kernel's sparse
long division, given the closed form's terms, yields the coefficients
that both the reciprocal series and the partition table wrap. Two
independent oracles guard it: a sum over Durfee squares that never
touches pentagonal numbers, and literal enumeration of partitions at
small n. All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .pentagonal import pentagonal_terms_upto
from .series import (TruncatedSeries, _check_index, _div_binomial_inplace,
                     _div_sparse_inplace, _int_add, _require_int,
                     _require_int_tuple, _zeros)

ENUMERATION_LIMIT = 45


@dataclass(frozen=True)
class PartitionTable:
    """p(0)..p(max_n) as exact integers, with max_n = len(values) - 1."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_int_tuple(self.values, "values")
        if not self.values:
            raise ValueError("values must hold at least p(0), got none")

    @property
    def max_n(self) -> int:
        """The largest n tabulated."""
        return len(self.values) - 1

    def __getitem__(self, n: int) -> int:
        _check_index(n, self.max_n, "n")
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


def _reciprocal_coeffs(n: int) -> list[int]:
    """q_0..q_n of 1 / closed form, by one sparse long division.

    Divides the unit list by 1 plus the closed form's terms above x^0
    through the series kernel ``_div_sparse_inplace``: q_m is minus the
    sum of c * q_(m-e) over the terms (e, c) with e <= m.
    """
    q = _zeros(n)
    q[0] = 1
    _div_sparse_inplace(q, pentagonal_terms_upto(n)[1:])
    return q


def reciprocal_series(order: int) -> TruncatedSeries:
    """The series r with closed_form * r = 1 at this order."""
    _require_int(order, "order")
    return TruncatedSeries(tuple(_reciprocal_coeffs(order)))


def partitions_recurrence(n_max: int) -> PartitionTable:
    """p(0..n_max) via the sparse recurrence, O(n^1.5) integer additions."""
    _require_int(n_max, "n_max", 0)
    return PartitionTable(tuple(_reciprocal_coeffs(n_max)))


def partitions_oracle_dp(n_max: int) -> PartitionTable:
    """p(0..n_max) by summing over the Durfee square of each partition.

    The largest s x s square in a Ferrers diagram leaves a partition into
    at most s parts to its right and one into parts <= s below it, so
    1/prod_k (1 - x^k) = sum_(s >= 0) x^(s^2) / ((1 - x)...(1 - x^s))^2
    (Andrews, The Theory of Partitions, ch. 2). One list a holds
    1/((1 - x)...(1 - x^s))^2, cut to the n_max - s^2 + 1 entries that
    x^(s^2) leaves room for and divided twice by (1 - x^s); one C-level
    pass adds it into the total from x^(s^2). For s = 1..isqrt(n_max)
    that is about 2*n_max^1.5 kernel updates and half as many additions.
    Shares nothing with the recurrence: no pentagonal numbers, no
    subtraction.
    """
    _require_int(n_max, "n_max", 0)
    total = _zeros(n_max)
    total[0] = 1
    a = total[:]
    for s in range(1, isqrt(n_max) + 1):
        del a[n_max - s * s + 1:]
        _div_binomial_inplace(a, s, s)
        _div_binomial_inplace(a, s, s)
        total[s * s:] = map(_int_add, total[s * s:], a)
    return PartitionTable(tuple(total))


def partitions_enumerate(n: int) -> int:
    """Count partitions of n by generating each one once.

    Descending-parts recursion; every leaf is one partition. Guarded at
    n = 45 to keep the walk around two million nodes.
    """
    _require_int(n, "n", 0)
    if n > ENUMERATION_LIMIT:
        raise ValueError(
            f"enumeration of n = {n} would walk every partition "
            f"explicitly; use partitions_recurrence or "
            f"partitions_oracle_dp beyond n = {ENUMERATION_LIMIT}"
        )

    def count(remaining: int, max_part: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(min(remaining, max_part), 0, -1):
            total += count(remaining - part, part)
        return total

    return count(n, n) if n else 1
