"""Command-line interface.

Subcommands:
    report CASE        invariants of one catalog case
    tables             both classification tables
    resolve N Q        Hirzebruch-Jung data of the A_{N,Q} singularity (N <= 10000)
    rationality CASE   proof transcript and certificate (klein or xv)
    validate FILE      schema and semantic checks for a scenario file

Exit codes: 0 success, 1 computation inconsistency (failed Noether or
integrality check, missing certificate, irregular or unannotated rationality
case), 2 input error, 141 (128 + SIGPIPE) when the reader closes stdout early, as `| head` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import catalog
from .hj_resolution import CyclicSing

OK, INCONSISTENT, INPUT_ERROR, BROKEN_PIPE = 0, 1, 2, 141


def _cmd_report(args) -> int:
    scenario = catalog.find_case(args.case, args.catalog)
    print(catalog.render_report(scenario, args.format))
    return INCONSISTENT if scenario.report.flags else OK


def _cmd_tables(args) -> int:
    tables = catalog.run_tables(args.catalog)
    if args.format == "json":  # one document: an array of the two tables, each row {column: cell}
        print(json.dumps([{"table": number, "rows": [{c: row.get(c, "") for c in columns} for row in rows]}
                          for number, (columns, rows) in enumerate(tables, start=1)], indent=2, sort_keys=True))
    else:
        titles = ("Table 1: quotients by cyclic groups", "Table 2: quotients by non-cyclic groups")
        print("\n\n".join(f"{title}\n{catalog.render_table(columns, rows, args.format)}"
                            for title, (columns, rows) in zip(titles, tables)))
    bad = [label for label, scenario in catalog.load_catalog(args.catalog).items() if scenario.report.flags]
    if bad:
        print(f"Noether check failed for: {', '.join(bad)}", file=sys.stderr)
        return INCONSISTENT
    return OK


def _cmd_resolve(args) -> int:
    try:
        sing = CyclicSing(args.n, args.q)
        resolution = sing.chain()  # refuses n above the closure bound
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return INPUT_ERROR
    chain, disc, corr = resolution.selfints, resolution.discrepancies, resolution.k2_correction()
    if args.format == "json":
        print(json.dumps({
            "n": sing.n,
            "q_canonical": sing.q,
            "type": sing.display(),
            "chain_self_intersections": [-b for b in chain],
            "discrepancies": [str(a) for a in disc],
            "k2_correction": str(corr),
            "components": len(chain),
            "du_val": sing.is_du_val,
        }, indent=2, sort_keys=True))
    else:
        alias = f" ({sing.display()})" if sing.is_du_val else ""
        print(f"A{sing.n},{sing.q}{alias}: chain {tuple(-b for b in chain)} (up to reversal)")
        print(f"  discrepancies: ({', '.join(str(a) for a in disc)})")
        print(f"  K^2 correction: {corr}")
        print(f"  components: {len(chain)}{', du Val' if sing.is_du_val else ''}")
    return OK


def _cmd_rationality(args) -> int:
    from . import rationality_cases  # imported here so that no other command loads blowdown

    scenario = catalog.find_case("XI" if args.case == "klein" else "XV", args.catalog)
    text, certs = rationality_cases.transcript(scenario)  # NoCertificate is an ArithmeticError: exit 1
    if (case := scenario.annotations["rationality_case"]) != args.case:  # a relabelled file picks the other proof
        raise rationality_cases.NoCertificate(
            f"case {scenario.label}: certified by the {case} proof, not by {args.case}")
    if args.format == "json":
        print(json.dumps({name: c.to_json_dict() for name, c in certs.items()}, indent=2, sort_keys=True))
    else:
        print(text, end="")
    return OK


def _cmd_validate(args) -> int:
    try:  # every diagnostic goes to stdout, that of a file it cannot read too
        data = catalog.read_scenario_file(Path(args.file), args.file)
        diagnostics = [f"{args.file}: {d}" for d in catalog.validate_scenario(data)]
    except catalog.InvalidScenario as exc:
        diagnostics = exc.diagnostics
    if diagnostics:
        print(*diagnostics, sep="\n")
        return INPUT_ERROR
    print(f"{args.file}: ok")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanoq",
        description="Exact invariants of quotients of the Fano surface of a cubic threefold.")
    parser.add_argument("--format", choices=("text", "json", "markdown"), default="text")
    parser.add_argument("--catalog", type=Path, default=None,
                        help="directory of scenario files (defaults to the built-in catalog)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="invariants of one catalog case")
    p.add_argument("case")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("tables", help="both classification tables")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("resolve", help="Hirzebruch-Jung data of A_{n,q}")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("rationality", help="rationality proof transcript and certificate")
    p.add_argument("case", choices=("klein", "xv"))
    p.set_defaults(func=_cmd_rationality)

    p = sub.add_parser("validate", help="validate a scenario file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the interpreter's last flush
        return code
    except BrokenPipeError:  # the reader hung up: what is left, the last flush at exit too, goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except UnicodeEncodeError:  # a scenario's text on a stdout whose encoding cannot hold it
        print(f"stdout encoding {sys.stdout.encoding} cannot print this output; try PYTHONIOENCODING=utf-8",
              file=sys.stderr)
        return INPUT_ERROR
    except catalog.InvalidScenario as exc:
        for d in exc.diagnostics:
            print(d, file=sys.stderr)
        return INPUT_ERROR
    except ArithmeticError as exc:
        print(exc, file=sys.stderr)
        return INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
