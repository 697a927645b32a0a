"""Command-line front end: expansion, traces, tables, verification.

Every command writes deterministic output for a fixed set of flags, to
stdout or to --out PATH. A command computes its result first and one
renderer writes it as text, JSON or CSV, so --out PATH is opened only
once there is a result to write. Exit codes: 0 success, 1 verification
failure, 2 usage error, 130 interrupted, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from typing import IO, Callable, Iterable, NamedTuple

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
    EmissionRecord,
    StageVerificationError,
    initial_tail,
    replay_stages,
    run_telescope,
)
from .verify import full_verification


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer from ``low`` up to ``sys.maxsize``.

    Above ``sys.maxsize`` no list index reaches, so the commands would
    overflow or never return.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > sys.maxsize:
            raise argparse.ArgumentTypeError(
                f"must be <= {sys.maxsize}, got {value}")
        return value
    return parse


class _Output(NamedTuple):
    """A command's result. Each format is built only if it is written;
    ``rows(sep)`` yields table rows with their fields joined by ``sep``."""

    payload: Callable[[], dict]
    lines: Callable[[], Iterable[str]] | None = None
    rows: Callable[[str], Iterable[str]] | None = None
    code: int = 0


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


def _cmd_expand(args: argparse.Namespace) -> _Output:
    series = partial_product(max(args.order, 1), args.order)
    return _Output(
        payload=lambda: to_sparse_json(series),
        lines=lambda: [format_series(series)],
        rows=lambda sep: (f"{e}{sep}{c}" for e, c in series.nonzero_terms()),
    )


def _cmd_pentagonals(args: argparse.Namespace) -> _Output:
    pairs = pentagonal_pairs_upto(args.upto)
    return _Output(
        payload=lambda: {
            "upto": args.upto,
            "pairs": [
                {"n": p.n, "g_minus": p.g_minus, "g_plus": p.g_plus, "sign": p.sign}
                for p in pairs
            ],
        },
        rows=lambda sep: (f"{p.n}{sep}{p.g_minus}{sep}{p.g_plus}{sep}{p.sign}"
                          for p in pairs),
    )


def _cmd_telescope(args: argparse.Namespace) -> _Output:
    if args.order is not None and args.stages is None:
        trace = run_telescope(args.variant, args.order)
        records = trace.emissions
    else:
        records = replay_stages(args.variant, args.stages or 5, args.order)
        trace = None

    def payload() -> dict:
        head = {"variant": args.variant, "order": args.order}
        body = {"prefix": [list(t) for t in PREFIX_TERMS[args.variant]],
                "emissions": [_emission_json(r) for r in records]}
        if trace is None:
            return {**head, "stages": len(records), **body, "verified": True}
        tail = trace.residual
        residual = {"stage": tail.stage, "base": tail.base, "step": tail.step,
                    "product_start": tail.step,
                    "leading_exponent": tail.leading_exponent}
        return {**head, **body, "residual": residual, "verified": True,
                "series": to_dense_json(trace.reconstruct())}

    def lines() -> Iterable[str]:
        yield _identity_line(args.variant)
        for position, record in enumerate(records):
            yield _equation_line(position, record)
        if trace is not None:
            yield "series: " + format_series(trace.reconstruct())
        yield "verified: true"

    return _Output(payload, lines)


def _cmd_partitions(args: argparse.Namespace) -> _Output:
    values = partitions_recurrence(args.upto).values
    return _Output(
        payload=lambda: {"upto": args.upto, "values": [str(v) for v in values]},
        rows=lambda sep: (f"{n}{sep}{v}" for n, v in enumerate(values)),
    )


def _cmd_verify(args: argparse.Namespace) -> _Output:
    checks = full_verification(args.order, args.roots_max_d)
    failures = [c for c in checks if not c.passed]

    def lines() -> Iterable[str]:
        for check in checks:
            verdict = "PASS" if check.passed else "FAIL"
            yield f"{verdict} {check.name} ({check.detail})"
        if failures:
            yield f"{len(failures)} of {len(checks)} checks failed"
        else:
            yield f"all {len(checks)} checks passed"

    return _Output(
        payload=lambda: {
            "order": args.order,
            "roots_max_d": args.roots_max_d,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in checks
            ],
            "passed": not failures,
        },
        lines=lines,
        code=1 if failures else 0,
    )


def _render(args: argparse.Namespace, output: _Output, out: IO[str]) -> None:
    if args.json:
        json.dump(output.payload(), out, indent=2)
        out.write("\n")
        return
    if args.csv:
        lines = output.rows(",")
    elif output.lines is not None:
        lines = output.lines()
    else:
        lines = output.rows(" ")
    out.writelines(line + "\n" for line in lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pentagon",
        description=(
            "Expand prod (1 - x^k) into its sparse series, replay the "
            "telescoping derivations, and check the consequences."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_output(p: argparse.ArgumentParser,
                   func: Callable[[argparse.Namespace], _Output], csv: bool) -> None:
        p.set_defaults(func=func, csv=False)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--json", action="store_true",
                           help="emit JSON instead of text")
        if csv:
            group.add_argument("--csv", action="store_true",
                               help="emit CSV rows instead of text")
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")

    p = sub.add_parser("expand", help="expand the product at a given order")
    p.add_argument("--order", type=_int_at_least(0), required=True,
                   help="truncation order N (series modulo x^(N+1))")
    add_output(p, _cmd_expand, csv=True)

    p = sub.add_parser("pentagonals", help="list exponent pairs and signs")
    p.add_argument("--upto", type=_int_at_least(0), required=True,
                   help="list pairs whose smaller exponent is <= this bound")
    add_output(p, _cmd_pentagonals, csv=True)

    p = sub.add_parser("telescope", help="replay a telescoping derivation")
    p.add_argument("--variant", type=int, choices=(1, 2), required=True)
    p.add_argument("--order", type=_int_at_least(2), default=None,
                   help="run and verify the full derivation at this order")
    p.add_argument("--stages", type=_int_at_least(1), default=None,
                   help="replay a fixed number of stages (default 5 when "
                        "--order is absent)")
    add_output(p, _cmd_telescope, csv=False)

    p = sub.add_parser("partitions", help="tabulate partition counts")
    p.add_argument("--upto", type=_int_at_least(0), required=True,
                   help="largest n to tabulate")
    add_output(p, _cmd_partitions, csv=True)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--order", type=_int_at_least(2), required=True,
                   help="order for the closed form and cascade checks")
    p.add_argument("--roots-max-d", type=_int_at_least(1), default=12,
                   help="check primitive roots up to this order (default 12, "
                        "at most 500)")
    add_output(p, _cmd_verify, csv=False)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` builds once per process: a parse keeps its
    results in a new namespace and leaves the parser as it was."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
    except StageVerificationError as failure:
        print(f"verification failed: {failure}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"pentagon {args.subcommand}: error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        try:
            handle = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            parser.error(f"cannot write {args.out}: {exc.strerror}")
        with handle:
            _render(args, output, handle)
    else:
        _render(args, output, sys.stdout)
    return output.code


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Send what is still buffered to the
        # null device, so the interpreter's last flush stays silent, and
        # exit as a process that SIGPIPE ended would: 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    except KeyboardInterrupt:
        # Ctrl-C: exit as a process that SIGINT ended would, 128 + 2.
        code = 130
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
