"""Partition counts from the reciprocal side of the expansion.

Inverting the sparse series gives the generating function of the
partition numbers p(n), and the sparsity turns inversion into a
recurrence with O(sqrt(n)) terms per value. The series kernel's sparse
long division, given the closed form's terms, yields the coefficients
that both the reciprocal series and the partition table wrap; a large
table is divided in doubling rounds, a forked worker summing each
round's terms that read earlier rounds while this process divides. Two
independent oracles guard it: a sum over Durfee squares that never
touches pentagonal numbers, and literal enumeration of partitions at
small n. All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from math import isqrt

from ._worker import _forked, _use_worker
from .pentagonal import pentagonal_terms_upto
from .series import (TruncatedSeries, _add_shifted, _check_index,
                     _div_binomial_inplace, _div_sparse, _int_add,
                     _require_int, _require_int_tuple, _zeros)

ENUMERATION_LIMIT = 45
# A run worth a worker divides in one kernel call up to n halved until
# below twice _FIRST_BLOCK, then doubles in rounds; each round's far sums
# come in _CHUNKS chunks, all but the first from the worker.
_FIRST_BLOCK = 2500
_CHUNKS = 16


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


def _far_sums(q: list[int], terms: list[tuple[int, int]], a: int, b: int) -> list[int]:
    """For m = a..b-1, minus the sum of c * q_(m-e) over the terms (e, c)
    with 0 <= m - e < len(q): the part of each q_m that reads only q.

    ``terms`` ascend by e, and term (e, c) reads q into x^max(a, e) up
    to x^min(b, e + len(q)) - 1, two ends that rise with e. So one
    ``_add_shifted`` pass per term, into a list grown with zeros to
    that term's last exponent, reads q through an iterator set to its
    first index in O(1), as in ``_div_binomial_inplace``.
    """
    out: list[int] = []
    for e, c in terms:
        lo, hi = max(a, e), min(b, e + len(q))
        if lo < hi:
            out += repeat(0, hi - a - len(out))
            source = iter(q)
            source.__setstate__(lo - e)
            _add_shifted(out, lo - a, -c, source)
    out += repeat(0, b - a - len(out))
    return out


def _reciprocal_coeffs(n: int) -> list[int]:
    """q_0..q_n of 1 / closed form, by sparse long division.

    The series kernel ``_div_sparse`` divides 1 by 1 plus the closed
    form's terms above x^0: q_m is minus the sum of c * q_(m-e) over the
    terms (e, c) with e <= m. In one process that is one kernel call.

    A run worth a worker (``_use_worker`` of its reads, n + 1 - e per
    term) halves n until it is below 2 * ``_FIRST_BLOCK``, divides that
    far in one kernel call, then doubles what it has, q_0..q_s, in
    rounds, the last ending at x^n. In a round each new q_m splits in
    two: its far sums, over the terms with m - e <= s, read only the
    q_0..q_s already known; its near terms, with m - e > s, read only
    the round's own values. So the round's values are the kernel's
    division of the far sums by the same terms, as a list from x^(s+1).
    A forked worker, a copy of q_0..q_s, computes the far sums in
    ``_CHUNKS`` chunks but the first and sends each as it is done; the
    kernel divides each chunk as it arrives. This process computes the
    first chunk itself: its far sums read the most terms per entry, and
    the kernel starts on it while the worker computes the second.
    """
    _zeros(n)  # an order no list can hold fails before any term is listed
    terms = pentagonal_terms_upto(n)[1:]
    rounds = 0
    if _use_worker(sum(n + 1 - e for e, _ in terms)):
        while n >> (rounds + 1) >= _FIRST_BLOCK:
            rounds += 1
    q = _div_sparse(chain((1,), repeat(0, n >> rounds)), terms)
    for r in range(rounds - 1, -1, -1):
        a, b = len(q), (n >> r) + 1
        cuts = [a + (b - a) * i // _CHUNKS for i in range(_CHUNKS + 1)]
        tasks = [partial(_far_sums, q, terms, lo, hi)
                 for lo, hi in zip(cuts[1:], cuts[2:])]
        with _forked(tasks) as answers:
            first = _far_sums(q, terms, cuts[0], cuts[1])
            new = _div_sparse(chain(first, chain.from_iterable(answers)), terms)
        q += new
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
