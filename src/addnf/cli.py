"""Command-line front-end.

Subcommands: parse, count, enumerate, normalize, verify, partition-check.
Output is deterministic (sorted keys, canonical orderings); exit codes are
0 for success, 1 for usage/resource errors, 2 when verification finds a
countermodel.  Every resource failure, including nesting too deep for
the recursive formula walkers, exits 1 with an ``error:`` line.
"""
from __future__ import annotations

import argparse
import json
import sys

from .bitsets import too_long_to_print
from .constituents import DEFAULT_CAP, count, partition_check, space
from .domain_system import Generator, derive_generator
from .errors import CapExceeded, EngineError
from .logics import DEFAULT_BOUND, LOGIC_IDS, build_instance
from .rewriter import disjunction, normalize, verify
from .syntax import depth, parse_formula, render_formula, vocabulary


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="addnf",
        description="Enumerate degree-k normal forms and rewrite formulas into them.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, with_formula):
        sp.add_argument("--logic", default="prop", choices=LOGIC_IDS)
        sp.add_argument("--config", help="path to an instance-configuration JSON file")
        sp.add_argument("--k", type=int, help="degree (defaults to the formula depth)")
        sp.add_argument("--X", help="comma-separated proposition ids")
        sp.add_argument("--Y", help="comma-separated connective keys")
        sp.add_argument("--E", help="comma-separated points of V")
        sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
        sp.add_argument("--bound", type=int, default=DEFAULT_BOUND,
                        help="oracle model-size bound")
        sp.add_argument("--render", action="store_true",
                        help="include rendered formulas in the output")
        sp.add_argument("--format", choices=("json", "text"), default="json", dest="fmt")
        if with_formula:
            sp.add_argument("formula", nargs="?", default="-",
                            help="s-expression formula; '-' reads stdin")

    add_common(sub.add_parser("parse", help="parse and echo the canonical form"), True)
    add_common(sub.add_parser("count", help="exact space cardinality"), False)
    add_common(sub.add_parser("enumerate", help="list the space members"), False)
    norm = sub.add_parser("normalize", help="rewrite into a member-index set")
    add_common(norm, True)
    norm.add_argument("--verify", action="store_true", dest="do_verify",
                      help="also run the instance oracle on the result")
    add_common(sub.add_parser("verify", help="normalize and verify against the oracle"), True)
    add_common(sub.add_parser("partition-check", help="exhaustiveness and exclusivity"), False)
    return p


def _instance(args):
    config = None
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise EngineError(f"cannot read config {args.config!r}: {e}") from e
        if not isinstance(config, dict):
            raise EngineError(f"config {args.config!r} must hold a JSON object")
    return build_instance(args.logic, config)


def _read_formula(args, inst):
    text = args.formula
    if text == "-":
        text = sys.stdin.read()
    return parse_formula(text, inst.logic)


def _split(flag):
    return [x for x in flag.split(",") if x] if flag else None


def _generator(args, inst, f=None) -> Generator:
    logic, ds = inst.logic, inst.domain
    X = _split(args.X)
    if X is not None:
        for x in X:
            if not logic.accepts_prop(x):
                raise EngineError(f"unknown proposition {x!r} for --X")
        X = frozenset(X)
    Y = _split(args.Y)
    if Y is not None:
        sigs = []
        for key in Y:
            sig = logic.connectives.get(key)
            if sig is None:
                raise EngineError(f"unknown connective key {key!r} for --Y")
            sigs.append(sig)
        Y = frozenset(sigs)
    E = _split(args.E)
    if E is not None:
        bad = set(E) - ds.points
        if bad:
            raise EngineError(f"points {sorted(bad)} are not in V={sorted(ds.points)}")
        E = frozenset(E)
    if f is not None:
        return derive_generator(f, ds, k=args.k, X=X, Y=Y, E=E)
    if args.k is None:
        raise EngineError("--k is required for this command")
    if X is None:
        raise EngineError("--X is required for this command")
    if Y is None:
        Y = frozenset(logic.connectives.values())
    if E is None:
        E = ds.points
    return Generator(args.k, X, Y, E)


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        for key in sorted(doc):
            print(f"{key}: {json.dumps(doc[key], sort_keys=True)}")


def cmd_parse(args) -> int:
    inst = _instance(args)
    f = _read_formula(args, inst)
    props, conns = vocabulary(f)
    _emit(
        {
            "formula": render_formula(f, inst.logic),
            "depth": depth(f),
            "propositions": sorted(props),
            "connectives": sorted(c.key for c in conns),
            "iota": sorted(inst.domain.iota(f)),
        },
        args.fmt,
    )
    return 0


def cmd_count(args) -> int:
    inst = _instance(args)
    gen = _generator(args, inst)
    n = count(gen, inst.domain)
    if too_long_to_print(n):
        raise CapExceeded(
            f"space {gen.key} has 2**{n.bit_length() - 1} members; "
            "the count has too many digits to print", count=n
        )
    _emit({"key": gen.describe(), "count": n}, args.fmt)
    return 0


def cmd_enumerate(args) -> int:
    inst = _instance(args)
    gen = _generator(args, inst)
    sp = space(gen, inst.domain, args.cap)
    members = []
    for c in sp.members:
        doc = c.describe()
        if args.render:
            doc["formula"] = render_formula(c.to_formula(), inst.logic)
        members.append(doc)
    _emit({"key": gen.describe(), "size": sp.size, "members": members}, args.fmt)
    return 0


def _normalize_doc(args, inst, do_verify):
    f = _read_formula(args, inst)
    gen = _generator(args, inst, f)
    result = normalize(f, gen, inst.domain, args.cap)
    doc = result.describe()
    if args.render:
        doc["formula"] = render_formula(disjunction(result), inst.logic)
    code = 0
    if do_verify:
        report = verify(f, result, inst.oracle, args.bound)
        doc["verified"] = report.to_json()
        if not report.ok:
            code = 2
    return doc, code


def cmd_normalize(args) -> int:
    inst = _instance(args)
    doc, code = _normalize_doc(args, inst, getattr(args, "do_verify", False))
    _emit(doc, args.fmt)
    return code


def cmd_verify(args) -> int:
    inst = _instance(args)
    doc, code = _normalize_doc(args, inst, True)
    _emit(doc, args.fmt)
    return code


def cmd_partition_check(args) -> int:
    inst = _instance(args)
    gen = _generator(args, inst)
    sp = space(gen, inst.domain, args.cap)
    report = partition_check(sp, inst.oracle, args.bound)
    doc = {"key": gen.describe(), "size": sp.size}
    doc.update(report.to_json())
    _emit(doc, args.fmt)
    return 0 if report.ok else 2


_COMMANDS = {
    "parse": cmd_parse,
    "count": cmd_count,
    "enumerate": cmd_enumerate,
    "normalize": cmd_normalize,
    "verify": cmd_verify,
    "partition-check": cmd_partition_check,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: recursion limit exceeded: the input is nested too deeply",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
