"""Command-line front end: expansion, traces, tables, verification.

Every command writes deterministic output for a fixed set of flags, to
stdout or to --out PATH. Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import IO

from .partitions import partitions_recurrence
from .pentagonal import pentagonal_pairs_upto
from .series import (
    format_series,
    make_series,
    partial_product,
    to_dense_json,
    to_sparse_json,
)
from .telescope import (
    PREFIX_TERMS,
    DerivationTrace,
    EmissionRecord,
    StageVerificationError,
    initial_tail,
    replay_stages,
    run_telescope,
)
from .verify import full_verification


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = _nonnegative_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def tail_name(position: int) -> str:
    """Display name of the tail at a 0-based position: A..Z, then T27, T28..."""
    if position < 26:
        return chr(ord("A") + position)
    return f"T{position + 1}"


def _identity_line(variant: int) -> str:
    terms = dict(PREFIX_TERMS[variant])
    order = max(terms)
    prefix = make_series([terms.get(e, 0) for e in range(order + 1)], order)
    sign = "+" if initial_tail(variant).contribution_sign > 0 else "-"
    return f"s = {format_series(prefix)} {sign} {tail_name(0)}"


def _equation_line(position: int, record: EmissionRecord) -> str:
    s1, s2 = record.tail_signs
    first = f"x^{record.first_exponent}"
    if s1 < 0:
        first = f"-{first}"
    second_op = "+" if s2 > 0 else "-"
    return (f"{tail_name(position)} = {first} {second_op} "
            f"x^{record.second_exponent} - {tail_name(position + 1)}")


def _emission_json(record: EmissionRecord) -> dict:
    return {
        "stage": record.stage,
        "exps": [record.first_exponent, record.second_exponent],
        "signs": [record.first_sign, record.second_sign],
    }


def _trace_json(trace: DerivationTrace) -> dict:
    residual = trace.residual
    return {
        "variant": trace.variant,
        "order": trace.order,
        "prefix": [list(term) for term in trace.prefix],
        "emissions": [_emission_json(r) for r in trace.emissions],
        "residual": {
            "stage": residual.stage,
            "base": residual.base,
            "step": residual.step,
            "product_start": residual.product_start,
            "leading_exponent": residual.leading_exponent,
        },
        "verified": True,
        "series": to_dense_json(trace.reconstruct()),
    }


def _write_json(obj: dict, out: IO[str]) -> None:
    json.dump(obj, out, indent=2)
    out.write("\n")


def _cmd_expand(args: argparse.Namespace, out: IO[str]) -> int:
    series = partial_product(max(args.order, 1), args.order)
    if args.json:
        _write_json(to_sparse_json(series), out)
    elif args.csv:
        for exponent, coeff in series.nonzero_terms():
            out.write(f"{exponent},{coeff}\n")
    else:
        out.write(format_series(series) + "\n")
    return 0


def _cmd_pentagonals(args: argparse.Namespace, out: IO[str]) -> int:
    pairs = pentagonal_pairs_upto(args.upto)
    if args.json:
        payload = {
            "upto": args.upto,
            "pairs": [
                {"n": p.n, "g_minus": p.g_minus, "g_plus": p.g_plus, "sign": p.sign}
                for p in pairs
            ],
        }
        _write_json(payload, out)
    elif args.csv:
        for p in pairs:
            out.write(f"{p.n},{p.g_minus},{p.g_plus},{p.sign}\n")
    else:
        for p in pairs:
            out.write(f"{p.n} {p.g_minus} {p.g_plus} {p.sign}\n")
    return 0


def _cmd_telescope(args: argparse.Namespace, out: IO[str]) -> int:
    try:
        if args.order is not None and args.stages is None:
            trace = run_telescope(args.variant, args.order)
            records = list(trace.emissions)
        else:
            stages = args.stages if args.stages is not None else 5
            records = replay_stages(args.variant, stages, args.order)
            trace = None
    except StageVerificationError as failure:
        print(f"verification failed: {failure}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"pentagon telescope: error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        if trace is not None:
            _write_json(_trace_json(trace), out)
        else:
            payload = {
                "variant": args.variant,
                "order": args.order,
                "stages": len(records),
                "prefix": [list(t) for t in PREFIX_TERMS[args.variant]],
                "emissions": [_emission_json(r) for r in records],
                "verified": True,
            }
            _write_json(payload, out)
        return 0

    out.write(_identity_line(args.variant) + "\n")
    for position, record in enumerate(records):
        out.write(_equation_line(position, record) + "\n")
    if trace is not None:
        out.write("series: " + format_series(trace.reconstruct()) + "\n")
    out.write("verified: true\n")
    return 0


def _cmd_partitions(args: argparse.Namespace, out: IO[str]) -> int:
    table = partitions_recurrence(args.upto)
    if args.json:
        payload = {"upto": args.upto, "values": [str(v) for v in table.values]}
        _write_json(payload, out)
    elif args.csv:
        for n, value in enumerate(table.values):
            out.write(f"{n},{value}\n")
    else:
        for n, value in enumerate(table.values):
            out.write(f"{n} {value}\n")
    return 0


def _cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    checks = full_verification(args.order, args.roots_max_d)
    failures = [c for c in checks if not c.passed]
    if args.json:
        payload = {
            "order": args.order,
            "roots_max_d": args.roots_max_d,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
            "passed": not failures,
        }
        _write_json(payload, out)
    else:
        for check in checks:
            verdict = "PASS" if check.passed else "FAIL"
            out.write(f"{verdict} {check.name} ({check.detail})\n")
        if failures:
            out.write(f"{len(failures)} of {len(checks)} checks failed\n")
        else:
            out.write(f"all {len(checks)} checks passed\n")
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace, out: IO[str]) -> int:
    start = time.perf_counter()
    table = partitions_recurrence(args.upto)
    elapsed = time.perf_counter() - start
    digits = len(str(table[args.upto]))
    if args.json:
        payload = {
            "n_max": args.upto,
            "seconds": round(elapsed, 6),
            "entries": len(table),
            "largest_digits": digits,
        }
        _write_json(payload, out)
    else:
        out.write(
            f"partitions_recurrence({args.upto}) took {elapsed:.3f}s; "
            f"table entries {len(table)}; p({args.upto}) has {digits} "
            f"decimal digits\n"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentagon",
        description=(
            "Expand prod (1 - x^k) into its sparse series, replay the "
            "telescoping derivations, and check the consequences."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_formats(p: argparse.ArgumentParser, csv: bool) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true",
                           help="emit JSON instead of text")
        if csv:
            group.add_argument("--csv", action="store_true",
                               help="emit CSV rows instead of text")
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")

    p = sub.add_parser("expand", help="expand the product at a given order")
    p.add_argument("--order", type=_nonnegative_int, required=True,
                   help="truncation order N (series modulo x^(N+1))")
    add_formats(p, csv=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("pentagonals", help="list exponent pairs and signs")
    p.add_argument("--upto", type=_nonnegative_int, required=True,
                   help="list pairs whose smaller exponent is <= this bound")
    add_formats(p, csv=True)
    p.set_defaults(func=_cmd_pentagonals)

    p = sub.add_parser("telescope", help="replay a telescoping derivation")
    p.add_argument("--variant", type=int, choices=(1, 2), required=True)
    p.add_argument("--order", type=_nonnegative_int, default=None,
                   help="run and verify the full derivation at this order")
    p.add_argument("--stages", type=_positive_int, default=None,
                   help="replay a fixed number of stages (default 5 when "
                        "--order is absent)")
    add_formats(p, csv=False)
    p.set_defaults(func=_cmd_telescope)

    p = sub.add_parser("partitions", help="tabulate partition counts")
    p.add_argument("--upto", type=_nonnegative_int, required=True,
                   help="largest n to tabulate")
    add_formats(p, csv=True)
    p.set_defaults(func=_cmd_partitions)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--order", type=_nonnegative_int, required=True,
                   help="order for the closed form and cascade checks")
    p.add_argument("--roots-max-d", type=_positive_int, default=12,
                   help="check primitive roots up to this order (default 12)")
    add_formats(p, csv=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="time the partition recurrence")
    p.add_argument("--upto", type=_nonnegative_int, required=True)
    add_formats(p, csv=False)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "telescope" and args.order is not None and args.order < 2:
        parser.error("telescope --order must be >= 2")
    if args.subcommand == "verify" and args.order < 2:
        parser.error("verify --order must be >= 2")

    if args.out:
        try:
            handle = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            parser.error(f"cannot write {args.out}: {exc.strerror}")
        with handle:
            return args.func(args, handle)
    return args.func(args, sys.stdout)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
