"""Formula ASTs, connective signatures, and the s-expression front-end.

Surface grammar (UTF-8 text)::

    formula := prop | (not f) | (and f f) | (or f f) | (<conn> f ... f)

A proposition is a bare token or, when the logic names it so, a list of
bare tokens such as the atom ``(R u v)``.  A connective with a payload is
written as its key followed by its arguments, so the guarded quantifier
of key ``(ex (u) (R u v))`` is spelled ``(ex (u) (R u v) <body>)``:
parsing is the inverse of ``render_formula``.  ``(imp f g)`` and
``(iff f g)`` are accepted as sugar and expanded at parse time (``imp``
to ``(or (not f) g)``); the AST never stores them.

The parser takes linear time in the length of the text and does not
recurse on nesting depth: one pass tokenizes and groups the text with an
explicit stack of open lists, and a second pass interprets the groups
from an explicit work stack.  Tokens carry only their offset; line and
column are computed from it when an error is raised.

Everything here is an immutable value: formulas, signatures and logic
definitions can be shared freely across threads once constructed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .errors import DomainViolation, ParseError, UnknownSymbolError

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_'.-]*")


@dataclass(frozen=True)
class GuardPayload:
    """Payload of a guarded quantifier: bound variables plus the guard atom.

    ``guard`` is the proposition id of the guard atom (its canonical
    rendering, e.g. ``(R u v)``); ``bound`` is the sorted tuple of bound
    variables.
    """

    bound: tuple[str, ...]
    guard: str


@dataclass(frozen=True)
class ConnectiveSig:
    """Signature of a connective: spelling, rank, and optional payload."""

    name: str
    rank: int
    payload: GuardPayload | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"connective {self.name!r} must have rank >= 1")

    @property
    def key(self) -> str:
        """Canonical identifier; also the key used in JSON maps and CLI flags."""
        if self.payload is not None:
            return _payload_key(self.name, self.payload.bound, self.payload.guard)
        return self.name

    @property
    def carried_props(self) -> frozenset[str]:
        """Propositions mentioned by the connective itself (guard atoms)."""
        if self.payload is not None:
            return frozenset((self.payload.guard,))
        return frozenset()


def _payload_key(name: str, bound, guard: str) -> str:
    return f"({name} ({' '.join(bound)}) {guard})"


class Formula:
    """Base class for AST nodes."""


@dataclass(frozen=True)
class Prop(Formula):
    name: str


@dataclass(frozen=True)
class Not(Formula):
    child: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class App(Formula):
    """Application of a non-propositional connective to ``rank`` arguments."""

    conn: ConnectiveSig
    args: tuple[Formula, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) != self.conn.rank:
            raise ValueError(
                f"{self.conn.key} has rank {self.conn.rank}, got {len(self.args)} arguments"
            )


def depth(f: Formula) -> int:
    """Nesting depth of non-propositional connectives in ``f``."""
    if isinstance(f, Prop):
        return 0
    if isinstance(f, Not):
        return depth(f.child)
    if isinstance(f, (And, Or)):
        return max(depth(f.left), depth(f.right))
    if isinstance(f, App):
        return 1 + max(depth(a) for a in f.args)
    raise TypeError(f"not a formula: {f!r}")


def vocabulary(f: Formula) -> tuple[frozenset[str], frozenset[ConnectiveSig]]:
    """The propositions and non-propositional connectives occurring in ``f``.

    Guard atoms carried by quantifier payloads count as occurring
    propositions: they are part of the written formula.
    """
    props: set[str] = set()
    conns: set[ConnectiveSig] = set()

    def walk(g: Formula) -> None:
        if isinstance(g, Prop):
            props.add(g.name)
        elif isinstance(g, Not):
            walk(g.child)
        elif isinstance(g, (And, Or)):
            walk(g.left)
            walk(g.right)
        elif isinstance(g, App):
            conns.add(g.conn)
            props.update(g.conn.carried_props)
            for a in g.args:
                walk(a)
        else:
            raise TypeError(f"not a formula: {g!r}")

    walk(f)
    return frozenset(props), frozenset(conns)


def conj_all(items) -> Formula:
    """Conjunction of a non-empty sequence, in the given order.

    Folded as a balanced tree so very long conjunctions stay shallow.
    """
    return _fold(And, list(items))


def disj_all(items) -> Formula:
    """Disjunction of a non-empty sequence, in the given order."""
    return _fold(Or, list(items))


def _fold(node, items):
    if not items:
        raise ValueError("cannot fold an empty sequence of formulas")
    if len(items) == 1:
        return items[0]
    mid = (len(items) + 1) // 2
    return node(_fold(node, items[:mid]), _fold(node, items[mid:]))


@dataclass
class LogicDef:
    """One logic's syntax: signature, spellings and domain system.

    ``propositions`` controls which renderings parse as propositions:
    ``None`` accepts any identifier (an intensionally infinite universe),
    a frozenset restricts to the given ids, which may be lists of bare
    tokens such as ``(R u v)``.  ``tokens`` maps bare tokens to the
    formulas they stand for, read before proposition lookup (algebraic
    ``0``/``1``).
    """

    name: str
    domain: object
    connectives: dict[str, ConnectiveSig] = field(default_factory=dict)
    propositions: frozenset[str] | None = None
    spell_not: str = "not"
    spell_and: str = "and"
    spell_or: str = "or"
    sugar: bool = True
    tokens: dict[str, Formula] = field(default_factory=dict)

    def accepts_prop(self, token: str) -> bool:
        if self.propositions is None:
            return bool(IDENT_RE.fullmatch(token))
        return token in self.propositions


# ---------------------------------------------------------------------------
# Parsing


class _Token(NamedTuple):
    """A token and its offset into the source text.

    ``line`` and ``col`` are worked out from the offset when asked for,
    which happens only when an error is raised, so tokenizing stays
    linear in the length of the text.
    """

    text: str
    offset: int
    source: str

    @property
    def line(self) -> int:
        return self.source.count("\n", 0, self.offset) + 1

    @property
    def col(self) -> int:
        return self.offset - self.source.rfind("\n", 0, self.offset)


_TOKEN_RE = re.compile(r"[()]|[^()\s]+")
# _Token's own constructor is a Python-level function; this one is not.
_token = partial(tuple.__new__, _Token)


def _read(text: str):
    """Read exactly one node from ``text``: a _Token, or a list whose first
    element is its '(' token and whose other elements are its children."""
    matches = _TOKEN_RE.finditer(text)
    m = next(matches, None)
    if m is None:
        raise ParseError("unexpected end of input")
    node = _token((m.group(), m.start(), text))
    if node.text == ")":
        raise ParseError("unexpected ')'", node.line, node.col)
    if node.text == "(":
        node, enclosing = [node], []
        for m in matches:
            t = m.group()
            if t == "(":
                enclosing.append(node)
                node = [_token((t, m.start(), text))]
            elif t != ")":
                node.append(_token((t, m.start(), text)))
            elif enclosing:
                enclosing[-1].append(node)
                node = enclosing.pop()
            else:
                break
        else:
            raise ParseError("missing ')'", *_node_pos(node))
    m = next(matches, None)
    if m is not None:
        extra = _token((m.group(), m.start(), text))
        raise ParseError("unexpected trailing input", extra.line, extra.col)
    return node


def _node_pos(node):
    tok = node[0] if isinstance(node, list) else node
    return tok.line, tok.col


def parse_formula(text: str, logic: LogicDef) -> Formula:
    """Parse s-expression ``text`` into a validated formula of ``logic``."""
    return _interpret(_read(text), logic)


def _imp(a: Formula, b: Formula) -> Formula:
    return Or(Not(a), b)


def _iff(a: Formula, b: Formula) -> Formula:
    return And(Or(Not(a), b), Or(Not(b), a))


def _interpret(root, logic: LogicDef) -> Formula:
    """Interpret a read node, driven by an explicit stack.

    Nodes are visited in the order of a left-to-right recursive descent,
    and each check (arity before the arguments, domain after them) runs
    at the same point of that order, so the first error raised is the
    one the descent would raise.  A pending application sits on ``todo``
    as ``(build, n)`` until its ``n`` arguments are on ``done``.  Leaves,
    bare tokens and atoms alike, are interpreted once per rendering;
    equal leaves share one node.
    """
    builtins = {}
    if logic.sugar:
        builtins.update(imp=(_imp, 2), iff=(_iff, 2))
    builtins.update({logic.spell_or: (Or, 2), logic.spell_and: (And, 2),
                     logic.spell_not: (Not, 1)})
    leaves: dict[str, Formula] = {}
    done: list[Formula] = []
    todo = [root]
    while todo:
        node = todo.pop()
        kind = type(node)
        if kind is _Token:
            f = leaves.get(node.text)
            if f is None:
                f = leaves[node.text] = _interpret_token(node, logic)
            done.append(f)
            continue
        if kind is tuple:
            build, n = node
            args = done[-n:]
            del done[-n:]
            done.append(build(*args))
            continue
        if len(node) == 1:
            raise ParseError("empty expression", *_node_pos(node))
        head = node[1]
        if type(head) is list:
            raise ParseError("expected a connective name", *_node_pos(head))
        h = head.text
        args = node[2:]
        builtin = builtins.get(h)
        if builtin is not None:
            build, rank = builtin
        else:
            sig = logic.connectives.get(h)
            if sig is None:
                name = _rendering(node)
                if name is not None:
                    f = leaves.get(name)
                    if f is None and logic.accepts_prop(name):
                        f = leaves[name] = Prop(name)
                    if f is not None:
                        done.append(f)
                        continue
                sig = _payload_sig(node, logic)
                h, args = sig.key, node[4:]
            build, rank = partial(_app, sig, logic, head), sig.rank
        _expect_arity(h, args, rank, head)
        todo.append((build, rank))
        todo.extend(reversed(args))
    return done[0]


def _rendering(node) -> str | None:
    """How a bare token or a list of bare tokens renders; None otherwise."""
    if type(node) is _Token:
        return node.text
    if all(type(t) is _Token for t in node[1:]):
        return f"({' '.join(t.text for t in node[1:])})"
    return None


def _payload_sig(node, logic: LogicDef) -> ConnectiveSig:
    """The connective ``(h (<bound>) <guard> args...)`` is written as,
    looked up by its key ``(h (<bound sorted>) <guard>)``.

    A node of any other shape, or one whose key names no connective of
    the logic, is an unknown connective at its head.
    """
    head = node[1]
    name = head.text
    if len(node) >= 4 and type(node[2]) is list:
        bound = node[2][1:]
        guard = _rendering(node[3])
        if (guard is not None and logic.accepts_prop(guard)
                and all(type(t) is _Token for t in bound)):
            name = _payload_key(head.text, sorted(t.text for t in bound), guard)
            sig = logic.connectives.get(name)
            if sig is not None:
                return sig
    raise UnknownSymbolError(f"unknown connective {name!r}", head.line, head.col)


def _app(sig: ConnectiveSig, logic: LogicDef, head: _Token, *args: Formula) -> Formula:
    """The application, or ``DomainViolation`` at ``head`` for its first
    argument outside its domain."""
    if logic.domain is not None:
        failures = logic.domain.domain_failures(sig, args)
        if failures:
            i, it, border = failures[0]
            raise DomainViolation(
                f"argument {i} of {sig.key} is outside its domain: "
                f"iota={sorted(it)} is not a subset of j2={sorted(border)}",
                head.line, head.col,
            )
    return App(sig, args)


def _interpret_token(tok: _Token, logic: LogicDef) -> Formula:
    f = logic.tokens.get(tok.text)
    if f is not None:
        return f
    if logic.accepts_prop(tok.text):
        return Prop(tok.text)
    raise UnknownSymbolError(f"unknown proposition {tok.text!r}", tok.line, tok.col)


def _expect_arity(head, args, rank, tok):
    if len(args) != rank:
        raise ParseError(f"{head!r} takes {rank} argument(s), got {len(args)}", tok.line, tok.col)


# ---------------------------------------------------------------------------
# Printing


def render_formula(f: Formula, logic: LogicDef | None = None) -> str:
    """Deterministic rendering; ``parse_formula(render_formula(f)) == f``."""
    sn = logic.spell_not if logic else "not"
    sa = logic.spell_and if logic else "and"
    so = logic.spell_or if logic else "or"

    def r(g: Formula) -> str:
        if isinstance(g, Prop):
            return g.name
        if isinstance(g, Not):
            return f"({sn} {r(g.child)})"
        if isinstance(g, And):
            return f"({sa} {r(g.left)} {r(g.right)})"
        if isinstance(g, Or):
            return f"({so} {r(g.left)} {r(g.right)})"
        if isinstance(g, App):
            inner = " ".join(r(a) for a in g.args)
            if g.conn.payload is not None:  # its key, then its arguments
                return f"{g.conn.key[:-1]} {inner})"
            return f"({g.conn.name} {inner})"
        raise TypeError(f"not a formula: {g!r}")

    return r(f)
