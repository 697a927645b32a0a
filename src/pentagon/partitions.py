"""Partition counts from the reciprocal side of the expansion.

Inverting the sparse series gives the generating function of the
partition numbers p(n), and the sparsity turns inversion into a
recurrence with O(sqrt(n)) terms per value. The series kernel's sparse
long division, given the closed form's terms, yields the coefficients
that both the reciprocal series and the partition table wrap; in a
large table a forked worker sums the terms that read far back while
this process divides. Two independent oracles guard it: a sum over
Durfee squares that never touches pentagonal numbers, and literal
enumeration of partitions at small n. All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from math import isqrt

from ._worker import _Log, _forked, _use_worker
from .pentagonal import pentagonal_terms_upto
from .series import (TruncatedSeries, _add_shifted, _check_index,
                     _div_binomial_inplace, _div_sparse, _int_add,
                     _require_int, _require_int_tuple, _zeros)

ENUMERATION_LIMIT = 45
# A table forks a worker from n = _FORK_FROM, divides alone below
# x^_SPLIT_FROM (at least 3), then reads term e here from m = _JOIN * e
# on; the worker sums the earlier reads in blocks of at least _BLOCK.
_FORK_FROM = 5000
_SPLIT_FROM = 1500
_JOIN = 4
_BLOCK = 256


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


def _far_sums(q: list[int], log: _Log, terms: list[tuple[int, int]],
              a: int, b: int) -> list[int]:
    """For m = a..b-1, minus the sum of c * q_(m-e) over the terms (e, c)
    with e <= m < 4e: the part of each q_m that reads below x^(3m/4).

    ``terms`` ascend by e, and term (e, c) reads q into x^max(a, e) up
    to x^min(b, 4e) - 1, two ends that rise with e. So one
    ``_add_shifted`` pass per term, into a list grown with zeros to
    that term's last exponent, reads q through an iterator set to its
    first index in O(1), as in ``_div_binomial_inplace``. The reads end
    below x^(b - b // 4): q first receives the values below that from
    ``log``.
    """
    while len(q) < b - b // _JOIN:
        q += log.receive()
    out: list[int] = []
    for e, c in terms:
        lo, hi = max(a, e), min(b, _JOIN * e)
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

    A table worth a worker (``_use_worker`` of its reads, n + 1 - e per
    term, from n = 5000) divides alone below x^_SPLIT_FROM, then reads
    term e only from m = 4e on, about half of each entry's reads. A
    worker forked once sums the rest, e <= m < 4e, in blocks [a, b) of
    max(_BLOCK, a // 16) entries, at most a // 3, so a block reads q
    only below x^(b - b // 4) <= x^a: this process sends the values
    below x^a through a ``_Log``, which never waits, before it takes the
    block's far sums, so no wait cycle can form. The blocks are
    ``_forked`` tasks: this process computes any that does not arrive,
    and each one after the log takes no more.
    """
    _zeros(n)  # an order no list can hold fails before any term is listed
    terms = pentagonal_terms_upto(n)[1:]
    split = n
    if _use_worker(sum(n + 1 - e for e, _ in terms) if n >= _FORK_FROM else 0):
        split = min(n, _SPLIT_FROM - 1)
    q = _div_sparse(chain((1,), repeat(0, split)), terms)
    cuts = [len(q)]
    while cuts[-1] <= n:
        a = cuts[-1]
        cuts.append(min(n + 1, a + min(a // (_JOIN - 1), max(_BLOCK, a // 16))))
    if len(cuts) > 1:
        log = _Log()
        tasks = [partial(_far_sums, q, log, terms, a, b) for a, b in zip(cuts, cuts[1:])]
        with log, _forked(tasks) as answers:
            # each block sends q from the last cut sent; the worker forks
            # holding q below x^cuts[0], so the first frame starts there
            far = (next(answers) if log.send(q[sent:]) else task()
                   for sent, task in zip((cuts[0], *cuts), tasks))
            _div_sparse(chain.from_iterable(far), terms, q, _JOIN)
    return q


def reciprocal_series(order: int) -> TruncatedSeries:
    """The series r with closed_form * r = 1 at this order."""
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
        _div_binomial_inplace(a, s)
        _div_binomial_inplace(a, s)
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
