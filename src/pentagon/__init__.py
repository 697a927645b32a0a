"""Exact expansion of prod (1 - x^k) and everything it implies.

The package computes in the ring of integer power series modulo
x^(N+1): the product from its divisor sums, the closed form supported
on generalized pentagonal numbers, two machine-verified telescoping
derivations connecting them, the partition-count recurrence from the
reciprocal series, and the division-cascade and roots-of-unity checks.
"""

from .partitions import (
    ENUMERATION_LIMIT,
    PartitionTable,
    partitions_enumerate,
    partitions_oracle_dp,
    partitions_recurrence,
    reciprocal_series,
)
from .pentagonal import (
    PentagonalPair,
    closed_form_series,
    g_minus,
    g_plus,
    pentagonal_pair,
    pentagonal_pairs_upto,
    pentagonal_terms_upto,
)
from .series import (
    TruncatedSeries,
    add,
    div_binomial,
    format_series,
    make_series,
    monomial,
    mul,
    mul_binomial,
    one,
    partial_product,
    product_range,
    series_from_json,
    sub,
    to_dense_json,
    to_sparse_json,
)
from .telescope import (
    PREFIX_TERMS,
    DerivationTrace,
    EmissionRecord,
    StageVerificationError,
    TailFamily,
    expand_tail,
    initial_tail,
    reduce_step,
    replay_stages,
    run_telescope,
)
from .verify import (
    CheckResult,
    full_verification,
)

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_LIMIT",
    "PREFIX_TERMS",
    "CheckResult",
    "DerivationTrace",
    "EmissionRecord",
    "PartitionTable",
    "PentagonalPair",
    "StageVerificationError",
    "TailFamily",
    "TruncatedSeries",
    "add",
    "closed_form_series",
    "div_binomial",
    "expand_tail",
    "format_series",
    "full_verification",
    "g_minus",
    "g_plus",
    "initial_tail",
    "make_series",
    "monomial",
    "mul",
    "mul_binomial",
    "one",
    "partial_product",
    "partitions_enumerate",
    "partitions_oracle_dp",
    "partitions_recurrence",
    "pentagonal_pair",
    "pentagonal_pairs_upto",
    "pentagonal_terms_upto",
    "product_range",
    "reciprocal_series",
    "reduce_step",
    "replay_stages",
    "run_telescope",
    "series_from_json",
    "sub",
    "to_dense_json",
    "to_sparse_json",
]
