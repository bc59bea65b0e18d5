"""Command-line interface.

Subcommands: ``h2`` (cohomology report), ``burnside`` (basis, multiplication
table, mark matrix), ``char-table``, ``verify`` (the invariant suites in
``twochar.verify``, with fault injection), and ``crossed`` (crossed-module
reports).  Inputs are JSON files or names from the bundled corpus.  The
handlers only format what the library computes.  Exit codes: 0 success,
1 verification failure, 2 input error (a typed error raised on the input, or
a document that cannot be read or decoded as JSON), 3 bound exceeded,
4 internal fault (an :class:`~twochar.errors.InternalFault`, or any other
exception that escapes a handler, ``ValueError``, ``KeyError`` and
``TypeError`` included).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .burnside import basis, basis_element, determinant, mark_matrix, mul, pair_json, pair_label, pretty_element
from .characters import char_table, char_table_to_csv, char_table_to_json, verify_char_table
from .cochains import GModule, h2, schur_classes
from .crossed import load_crossed, pi1, pi2, triple_classes, triples
from .errors import ClosureTooLarge, FormulasDisagree, InternalFault, TooLarge, TwoCharError
from .groups import DEFAULT_MAX_ORDER, load_group
from .verify import SUITES


def _emit(args: argparse.Namespace, text: str):
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)


def _structure_str(factors) -> str:
    if not factors:
        return "trivial"
    return " ⊕ ".join(f"Z/{s}" for s in factors)


# ---------------------------------------------------------------------------
# Reports


def cmd_h2(args: argparse.Namespace) -> int:
    G = load_group(args.group, args.max_order)
    lines = [f"command: h2", f"input: {args.group}", f"seed: {args.seed}", f"group: {G.name} (order {G.order})"]
    classes = schur_classes(G)
    lines.append(f"Schur classes: {len(classes)}, structure: {_structure_str(classes.invariant_factors)}")
    if args.level is not None:
        classes = h2(G, GModule.trivial(G, args.level))
        lines.append(
            f"classes at level {args.level}: {len(classes)}, "
            f"invariant factors: {_structure_str(classes.invariant_factors)}"
        )
    for i, rep in enumerate(classes.representatives):
        lines.append(f"representative {i}: {[int(v) for v in rep.values.reshape(-1)]}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_burnside(args: argparse.Namespace) -> int:
    G = load_group(args.group, args.max_order)
    pairs = basis(G)
    labels, _, rows = mark_matrix(G)
    det = determinant(rows)
    elements = [basis_element(G, p) for p in pairs]
    products = [[pretty_element(mul(a, b)) for b in elements] for a in elements]
    if args.fmt == "json":
        doc = {
            "command": "burnside",
            "seed": args.seed,
            "group": G.name,
            "basis": [pair_json(p) for p in pairs],
            "products": products,
            "marks": [[str(v) for v in row] for row in rows],
            "determinant": str(det),
        }
        _emit(args, json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
        return 0
    lines = [f"command: burnside", f"input: {args.group}", f"seed: {args.seed}", f"group: {G.name}"]
    names = [pair_label(p) for p in pairs]
    lines.append(f"basis pairs: {len(pairs)}")
    for name in names:
        lines.append(f"  {name}")
    lines.append("multiplication table:")
    for a, row in zip(names, products):
        for b, prod in zip(names, row):
            lines.append(f"  {a} * {b} = {prod}")
    lines.append("mark matrix (rows = (subgroup, character), columns = basis):")
    header = ["row"] + names
    lines.append(",".join(header))
    for (P, ci), row in zip(labels, rows):
        tag = f"({','.join(map(str, P.elements))};chi{ci})"
        lines.append(",".join([tag] + [str(v) for v in row]))
    lines.append(f"determinant: {det}")
    lines.append(f"determinant nonzero: {not det.is_zero()}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_char_table(args: argparse.Namespace) -> int:
    G = load_group(args.group, args.max_order)
    table = char_table(G, verify=False)
    status = None
    if args.verify:
        try:
            verify_char_table(table)
            status = "PASS"
        except FormulasDisagree as exc:
            status = f"FAIL ({exc})"
    head = [f"command: char-table", f"input: {args.group}", f"seed: {args.seed}", f"group: {G.name}"]
    if status is not None:
        head.append(f"three-way agreement: {status}")
    if args.fmt == "json":
        doc = char_table_to_json(table)
        doc["seed"] = args.seed
        if status is not None:
            doc["verified"] = status
        _emit(args, json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    else:
        _emit(args, "\n".join(head) + "\n" + char_table_to_csv(table, numeric=args.numeric))
    return 1 if status is not None and status != "PASS" else 0


def cmd_verify(args: argparse.Namespace) -> int:
    result = SUITES[args.suite](args.seed, args.iters, args.poison, args.max_order)
    report = [
        f"command: verify",
        f"suite: {args.suite}",
        f"seed: {args.seed}",
        f"iters: {args.iters}",
        f"poison: {args.poison}",
        *result.lines,
        f"status: {'PASS' if result.ok else 'FAIL'}",
    ]
    _emit(args, "\n".join(report) + "\n")
    return 0 if result.ok else 1


def cmd_crossed(args: argparse.Namespace) -> int:
    sub = args.subcommand
    lines = [f"command: crossed {sub}", f"input: {args.file}", f"seed: {args.seed}"]
    K = load_crossed(args.file, args.max_order)
    if sub == "validate":
        lines.append("valid: true")
        lines.append(f"H order: {K.H.order}, G order: {K.G.order}")
    elif sub == "pi":
        q = pi1(K)
        k = pi2(K)
        lines.append(f"pi1 order: {q.order}")
        lines.append(f"pi2 order: {k.order}")
    elif sub == "triples":
        ts = triples(K)
        classes = triple_classes(K)
        lines.append(f"triples: {len(ts)}")
        lines.append(f"classes: {len(classes)}")
        lines.append(f"class sizes: {[len(c) for c in classes]}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _int_at_least(low: int):
    """An argparse ``type``: an integer of at least ``low``; the parser
    refuses anything else with exit 2, naming the argument."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # a non-integer reads "invalid int value: 'x'", as with type=int
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twochar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        p.add_argument("--output", default=None)
        # a string default goes through ``type`` too, so the variable is checked
        p.add_argument(
            "--max-order",
            type=_int_at_least(1),
            default=os.environ.get("TWO_CHAR_MAX_ORDER", str(DEFAULT_MAX_ORDER)),
        )

    p = sub.add_parser("h2", help="cohomology classes of a group")
    p.add_argument("group")
    p.add_argument("--level", type=_int_at_least(1), default=None)
    common(p, cmd_h2)

    p = sub.add_parser("burnside", help="basis, products, and mark matrix")
    p.add_argument("group")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    common(p, cmd_burnside)

    p = sub.add_parser("char-table", help="character table on commuting pairs")
    p.add_argument("group")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--numeric", action="store_true")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    common(p, cmd_char_table)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--iters", type=_int_at_least(1), default=200)
    p.add_argument("--poison", action="store_true")
    common(p, cmd_verify)

    p = sub.add_parser("crossed", help="crossed-module reports")
    p.add_argument("file")
    p.add_argument("subcommand", choices=("validate", "pi", "triples"))
    common(p, cmd_crossed)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (TooLarge, ClosureTooLarge) as exc:
        print(f"error: bound exceeded: {exc}", file=sys.stderr)
        return 3
    except TwoCharError as exc:
        witness = f" (witness: {exc.witness})" if exc.witness is not None else ""
        print(f"error: {type(exc).__name__}: {exc}{witness}", file=sys.stderr)
        return 4 if isinstance(exc, InternalFault) else 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
