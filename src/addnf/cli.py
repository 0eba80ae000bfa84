"""Command-line front-end.

Subcommands: parse, count, enumerate, normalize, verify, partition-check.
Output is deterministic (sorted keys, canonical orderings); exit codes are
0 for success, 1 for usage/resource errors, 2 when verification finds a
countermodel.  Every usage error (an unknown command or a flag the
command does not read) and every resource failure exits 1 with an
``error:`` line.  That includes nesting past the one limit that the
recursive walks of ``shape``, rendering, ``normalize`` and ``verify``
share: about 990 levels of ``not``, about half that for connective
nests.  Parsing has no such limit.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .bitsets import too_long_to_print
from .constituents import DEFAULT_CAP, count, partition_check, space
from .domain_system import Generator, derive_generator
from .errors import CapExceeded, EngineError
from .logics import DEFAULT_BOUND, LOGIC_IDS, build_instance
from .rewriter import disjunction, normalize, verify
from .syntax import parse_formula, render_formula, render_formulas, shape


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ``EngineError``s (exit 1)."""

    def error(self, message):
        raise EngineError(message)


# Every flag a command may read, in help order: (flag, argparse keywords).
_FLAGS = {
    "logic": ("--logic", {"default": "prop", "choices": LOGIC_IDS}),
    "config": ("--config", {"help": "path to an instance-configuration JSON file"}),
    "k": ("--k", {"type": int, "help": "degree (defaults to the formula depth)"}),
    "X": ("--X", {"help": "comma-separated proposition ids"}),
    "Y": ("--Y", {"help": "comma-separated connective keys"}),
    "E": ("--E", {"help": "comma-separated points of V"}),
    "cap": ("--cap", {"type": int, "default": DEFAULT_CAP}),
    "bound": ("--bound", {"type": int, "default": DEFAULT_BOUND,
                          "help": "oracle model-size bound"}),
    "render": ("--render", {"action": "store_true",
                            "help": "include rendered formulas in the output"}),
    "format": ("--format", {"choices": ("json", "text"), "default": "json", "dest": "fmt"}),
    "formula": ("formula", {"nargs": "?", "default": "-",
                            "help": "s-expression formula; '-' reads stdin"}),
}
_COMMON = {"logic", "config", "format"}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused; each
    command declares only the flags it reads."""
    p = _Parser(
        prog="addnf",
        description="Enumerate degree-k normal forms and rewrite formulas into them.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        wanted = _COMMON | set(flags.split())
        for key, (flag, kwargs) in _FLAGS.items():
            if key in wanted:
                sp.add_argument(flag, **kwargs)
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
    d, props, conns = shape(f)
    _emit(
        {
            "formula": render_formula(f, inst.logic),
            "depth": d,
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
    members = [sp.describe_member(i) for i in range(sp.size)]
    if args.render:
        texts = render_formulas([sp.formula(i) for i in range(sp.size)], inst.logic)
        for doc, text in zip(members, texts):
            doc["formula"] = text
    _emit({"key": gen.describe(), "size": sp.size, "members": members}, args.fmt)
    return 0


def cmd_normalize(args, do_verify=False) -> int:
    inst = _instance(args)
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
    _emit(doc, args.fmt)
    return code


def cmd_verify(args) -> int:
    return cmd_normalize(args, do_verify=True)


def cmd_partition_check(args) -> int:
    inst = _instance(args)
    gen = _generator(args, inst)
    sp = space(gen, inst.domain, args.cap)
    report = partition_check(sp, inst.oracle, args.bound)
    doc = {"key": gen.describe(), "size": sp.size}
    doc.update(report.to_json())
    _emit(doc, args.fmt)
    return 0 if report.ok else 2


_GENERATOR = "k X Y E"
# Each command: its handler, its help line and the flags it reads besides
# --logic, --config and --format.
_COMMANDS = {
    "parse": (cmd_parse, "parse and echo the canonical form", "formula"),
    "count": (cmd_count, "exact space cardinality", _GENERATOR),
    "enumerate": (cmd_enumerate, "list the space members", f"{_GENERATOR} cap render"),
    "normalize": (cmd_normalize, "rewrite into a member-index set",
                  f"{_GENERATOR} cap render formula"),
    "verify": (cmd_verify, "normalize and verify against the oracle",
               f"{_GENERATOR} cap bound render formula"),
    "partition-check": (cmd_partition_check, "exhaustiveness and exclusivity",
                        f"{_GENERATOR} cap bound"),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: recursion limit exceeded: the input is nested too deeply",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
