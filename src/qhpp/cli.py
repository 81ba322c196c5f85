"""Command-line interface.

Subcommands: ``eval``, ``expand``, ``kollar``, ``family``, ``sweep``,
``verify``.  All numeric output is exact; decimal approximations appear only
behind ``--approx`` and are marked as approximate.  Exit codes: 0 success,
1 usage error, 2 verification failure.

:func:`main` dispatches on the first word of argv: a command word picks
that command's parser from the map ``add_subparsers`` keeps, and that
parser reads the rest of argv, which is what the top-level parser would
hand it.  Any other argv (empty, an option, ``--``, an unknown word) goes
through the top-level parser, so help, usage and every refusal keep one
text and exit code.  The parsers are built once per process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from itertools import product
from math import prod
from typing import Sequence

from . import families, verify
from .contraction import QhppReport
from .hjcf import (
    HJFraction,
    discrepancy_coefficients,
    evaluate,
    expand,
    expansion_length,
    partial_orders,
)
from .kollar import KollarParams, singularity_types, weights

# The most entries a chain printed by `expand` or `kollar` may have; a longer
# chain is refused before it is built.
MAX_EXPAND_LENGTH = 1_000_000

# The most entries times order digits `eval` accepts, about the digits it prints.
MAX_EVAL_DIGITS = 4_000_000


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; main prints it as exit code 1
    def error(self, message):
        raise ValueError(message)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_span(text: str) -> range:
    """An inclusive integer span ``lo..hi`` (a bare integer means lo == hi)."""
    try:
        if ".." in text:
            lo_text, _, hi_text = text.partition("..")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"bad range {text!r}; expected N or LO..HI") from None
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _report_record(family: str, params: Sequence[int], report: QhppReport) -> dict:
    return {"family": family, "params": list(params), **report.to_record()}


def cmd_eval(args) -> int:
    w = HJFraction(tuple(args.entries))
    limit = sys.get_int_max_str_digits()  # 0: no int-to-str limit
    if limit:
        # the prefix orders rise strictly to q: refuse at the first one
        # past the limit, before any arithmetic on full-size orders
        bound, u, u_prev = 10**limit, 1, 0
        for n in w:
            u, u_prev = n * u - u_prev, u
            if u >= bound:
                raise ValueError(
                    f"the order of this chain has more than {limit} digits"
                )
    value = evaluate(w)
    q = str(value.numerator)  # every later value has at most as many digits
    size = len(w) * len(q)
    if size > MAX_EVAL_DIGITS:
        raise ValueError(
            f"{len(w)} entries times {len(q)} order digits is {size}; "
            f"the limit is {MAX_EVAL_DIGITS}"
        )
    po = partial_orders(w)
    coeffs = discrepancy_coefficients(w)
    lines = [
        f"w = {w}",
        f"q/q1 = {q}/{value.denominator}",
        f"|w| = {q}",
        f"u = ({', '.join(str(x) for x in po.u)})",
        f"v = ({', '.join(str(x) for x in po.v)})",
        f"discrepancies = ({', '.join(_frac(d) for d in coeffs)})",
    ]
    print("\n".join(lines))
    return 0


def cmd_expand(args) -> int:
    length = expansion_length(args.q, args.q1)
    if length > MAX_EXPAND_LENGTH:
        raise ValueError(
            f"q/q1 expands to {length} entries; the limit is {MAX_EXPAND_LENGTH}"
        )
    print(expand(args.q, args.q1))
    return 0


def cmd_kollar(args) -> int:
    p = KollarParams(args.a1, args.a2, args.a3, args.a4)
    # the two chains have a2 + a4 and a1 + a3 entries
    length = max(p.a1 + p.a3, p.a2 + p.a4)
    if length > MAX_EXPAND_LENGTH:
        raise ValueError(
            f"the longer chain has {length} entries; the limit is {MAX_EXPAND_LENGTH}"
        )
    W = weights(p)
    print(f"a  = {p.as_tuple()}")
    print(f"w  = ({W.w1}, {W.w2}, {W.w3}, {W.w4})")
    print(f"d  = {W.d}")
    print(f"w* = {W.wstar}")
    print(f"s1 = {W.s1}, t1 = {W.t1}")
    print(f"s2 = {W.s2}, t2 = {W.t2}")
    if W.wstar != 1:
        print(
            f"w* = {W.wstar} != 1: singularity types are only defined for a "
            "primitive weight system"
        )
        return 0
    for i, (sing, chain) in enumerate(singularity_types(p), start=1):
        print(f"type {i}: {sing}, chain {chain}")
    return 0


def _print_report(fb: families.FamilyBuild, report: QhppReport, approx: bool) -> None:
    print(f"family {fb.family}{fb.params}")
    print(f"blow-ups = {fb.model.blowup_count}")
    print(f"rho = {report.rho}")
    for i, (sing, chain) in enumerate(report.singularities, start=1):
        print(f"singularity {i}: {sing}, chain {chain}")
    print(f"k_class = {report.k_class.value}")
    print(f"k_value = {_frac(report.k_value)}")
    if approx:
        print(f"k_value approx. {float(report.k_value):.6g}")
    print(f"test curve = {report.test_curve}")


def cmd_family(args) -> int:
    fb = families.build(args.family, args.params)
    report = fb.classify()
    # written first, so that a run that cannot write it prints no report
    if args.graph:
        with open(args.graph, "w") as handle:
            handle.write(fb.model.dual_graph().to_dot())
    if args.json:
        print(json.dumps(_report_record(fb.family, fb.params, report)))
    else:
        _print_report(fb, report, args.approx)
        if args.graph:
            print(f"dual graph written to {args.graph}")
    return 0


def _row_cells(fb: families.FamilyBuild, rep: QhppReport, approx: bool) -> list[str]:
    """One member's cells in a CSV or markdown sweep."""
    cells = [
        *(str(x) for x in fb.params),
        ";".join(str(s.q) for s, _ in rep.singularities),
        str(rep.rho),
        rep.k_class.value,
        _frac(rep.k_value),
    ]
    if approx:
        cells.append(f"{float(rep.k_value):.6g}")
    return cells


def cmd_sweep(args) -> int:
    family = args.family
    spans = [_parse_span(text) for text in args.ranges]
    # the upper corner first, so the size limit is reported before a domain error
    names = families.check_params(family, [span[-1] for span in spans]).names
    families.check_params(family, [span[0] for span in spans])
    members = prod(len(span) for span in spans)
    if members > families.MAX_SWEEP_MEMBERS:
        raise ValueError(
            f"the box has {members} members; the limit is {families.MAX_SWEEP_MEMBERS}"
        )
    if args.output:  # fail on an unwritable path before any build, emptying nothing
        open(args.output, "a").close()
    builds = (families.build(family, params) for params in product(*spans))
    rows = ((fb, fb.classify()) for fb in builds)
    if args.format == "json":
        records = [_report_record(family, fb.params, rep) for fb, rep in rows]
        text = json.dumps(records, indent=2) + "\n"
    else:
        header = [*names, "orders", "rho", "k_class", "k_value"]
        if args.approx:
            header.append(
                "k_value_approx" if args.format == "csv" else "k_value (approx.)"
            )
        table = [header, *(_row_cells(fb, rep, args.approx) for fb, rep in rows)]
        if args.format == "csv":  # no cell holds a comma, a quote or a line break
            lines = [",".join(cells) for cells in table]
        else:  # markdown
            lines = ["| " + " | ".join(cells) + " |" for cells in table]
            lines.insert(1, "|" + "|".join(" --- " for _ in header) + "|")
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    results = verify.run(args.suite)
    failed = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        detail = f" ({check.detail})" if check.detail else ""
        print(f"{status} {check.name}{detail}")
        failed += not check.passed
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def _build_parsers() -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and its map from command word to command parser."""
    parser = _Parser(
        prog="qhpp",
        description=(
            "Exact computations with Hirzebruch-Jung continued fractions, "
            "blow-ups of the plane and rank-one contractions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    family_help = f"one of {', '.join(families.FAMILIES)}"

    p = sub.add_parser("eval", help="evaluate a chain: value, order, discrepancies")
    p.add_argument("entries", nargs="+", type=int, metavar="N")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("expand", help="expand q/q1 into a chain")
    p.add_argument("q", type=int)
    p.add_argument("q1", type=int)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("kollar", help="weight system and singularity types")
    for name in ("a1", "a2", "a3", "a4"):
        p.add_argument(name, type=int)
    p.set_defaults(func=cmd_kollar)

    p = sub.add_parser("family", help="build one family member and classify it")
    p.add_argument("family", help=family_help)
    p.add_argument("params", nargs="+", type=int, metavar="P")
    p.add_argument("--json", action="store_true", help="emit a JSON record")
    p.add_argument("--graph", metavar="PATH", help="write the dual graph as DOT")
    p.add_argument(
        "--approx", action="store_true", help="also print a decimal approximation"
    )
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("sweep", help="classify a family over parameter ranges")
    p.add_argument("family", help=family_help)
    p.add_argument("ranges", nargs="+", metavar="LO..HI")
    p.add_argument("--format", choices=("csv", "json", "markdown"), default="csv")
    p.add_argument("--output", "-o", metavar="PATH")
    p.add_argument(
        "--approx", action="store_true", help="add a decimal approximation column"
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run exhaustive invariant suites")
    p.add_argument("suite", help=f"one of all, {', '.join(verify.SUITE_NAMES)}")
    p.set_defaults(func=cmd_verify)

    return parser, sub.choices


def build_parser() -> _Parser:
    return _build_parsers()[0]


# parse_args leaves the parsers unchanged, so one pair serves every call
_parsers = functools.cache(_build_parsers)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser, commands = _parsers()
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args = command.parse_args(argv[1:])
        return args.func(args)
    except families.BuildCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    raise SystemExit(main())
