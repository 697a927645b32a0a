"""Partition counts from the reciprocal side of the expansion.

Inverting the sparse series gives the generating function of the
partition numbers p(n), and the sparsity turns inversion into a
recurrence with O(sqrt(n)) terms per value. Two independent oracles
guard the recurrence: an unbounded-knapsack accumulation that never
touches pentagonal numbers, and literal enumeration of partitions at
small n. All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pentagonal import closed_form_series, g_minus, g_plus
from .series import TruncatedSeries, _div_binomial_inplace, make_series

ENUMERATION_LIMIT = 45


@dataclass(frozen=True)
class PartitionTable:
    """p(0)..p(max_n) as exact integers."""

    max_n: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.max_n + 1:
            raise ValueError(
                f"need {self.max_n + 1} values for max_n {self.max_n}, "
                f"got {len(self.values)}"
            )

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return self.max_n + 1


def reciprocal_series(order: int) -> TruncatedSeries:
    """The series r with closed_form * r = 1 at this order.

    Long division against the sparse closed form: each new coefficient
    cancels the lowest surviving term, walking the nonzero support only.
    """
    divisor = closed_form_series(order)
    support = [(e, s) for e, s in divisor.nonzero_terms() if e >= 1]
    q = [0] * (order + 1)
    q[0] = 1
    for i in range(1, order + 1):
        acc = 0
        for e, s in support:
            if e > i:
                break
            if s > 0:
                acc -= q[i - e]
            else:
                acc += q[i - e]
        q[i] = acc
    return make_series(q, order)


def recurrence_support(n_max: int) -> list[tuple[int, int]]:
    """(offset, sign) pairs of the p(n) recurrence, ascending by offset.

    The sign for pair index k is (-1)^(k-1), opposite to the sign the
    exponents carry in the series itself, because these terms sit on the
    inverse side of the identity.
    """
    support: list[tuple[int, int]] = []
    k = 1
    while g_minus(k) <= n_max:
        sign = 1 if k % 2 else -1
        support.append((g_minus(k), sign))
        if g_plus(k) <= n_max:
            support.append((g_plus(k), sign))
        k += 1
    return support


def partitions_recurrence(n_max: int) -> PartitionTable:
    """p(0..n_max) via the sparse recurrence, O(n^1.5) integer additions."""
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    support = recurrence_support(n_max)
    values = [1]
    for n in range(1, n_max + 1):
        acc = 0
        for g, sign in support:
            if g > n:
                break
            if sign > 0:
                acc += values[n - g]
            else:
                acc -= values[n - g]
        values.append(acc)
    return PartitionTable(n_max, tuple(values))


def partitions_oracle_dp(n_max: int) -> PartitionTable:
    """p(0..n_max) by accumulating one part size at a time.

    Divides 1 by (1 - x^k) for k = 1..n_max, the unbounded-knapsack
    table: after part k, entry n counts partitions of n into parts <= k.
    Shares nothing with the recurrence: no pentagonal numbers, no
    subtraction.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    values = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        _div_binomial_inplace(values, k, n_max)
    return PartitionTable(n_max, tuple(values))


def partitions_enumerate(n: int) -> int:
    """Count partitions of n by generating each one once.

    Descending-parts recursion; every leaf is one partition. Guarded at
    n = 45 to keep the walk around two million nodes.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
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
