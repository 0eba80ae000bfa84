"""The guarded-fragment instance.

Atoms over the instance's variables and relation symbols play the
proposition role (their ids are their canonical renderings, e.g.
``(R u v)``); the non-propositional connectives are guarded quantifiers
``(ex (vars) guard -)``.  The point set is the variable set, a formula's
footprint is its free-variable set, and a quantifier's borders are its
bound variables (j1) and its guard's variables (j2), so the domain
predicate is exactly "the body's free variables fit under the guard".

The oracle searches relational structures with universes up to the bound
under standard first-order semantics.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..domain_system import DomainSystem, Generator
from ..errors import DomainViolation, EngineError, ParseError
from ..syntax import (
    And,
    App,
    ConnectiveSig,
    Formula,
    GuardPayload,
    LogicDef,
    Not,
    Or,
    Prop,
)
from .base import DEFAULT_BUDGET, Context, Oracle, OracleReport

EQ = "="


def _atom_id(rel: str, args) -> str:
    return f"({rel} {' '.join(args)})"


@dataclass
class GFInstance:
    logic: LogicDef = field(repr=False)
    oracle: "GFOracle" = field(repr=False)
    variables: tuple[str, ...]
    relations: dict[str, int]
    equality: bool
    atoms: dict[str, tuple[str, tuple[str, ...]]]
    connectives: dict[str, ConnectiveSig]

    @property
    def domain(self) -> DomainSystem:
        return self.logic.domain

    def atom(self, rel: str, *args: str) -> str:
        aid = _atom_id(rel, args)
        if aid not in self.atoms:
            raise EngineError(f"no such atom {aid!r} in this instance")
        return aid

    def quantifier(self, bound, guard_id: str) -> ConnectiveSig:
        key = ConnectiveSig("ex", 1, payload=GuardPayload(tuple(sorted(bound)), guard_id)).key
        sig = self.connectives.get(key)
        if sig is None:
            raise EngineError(f"no such quantifier {key!r} in this instance")
        return sig

    def free(self, f: Formula) -> frozenset[str]:
        """Free variables, computed from the syntax alone."""
        if isinstance(f, Prop):
            return frozenset(self.atoms[f.name][1])
        if isinstance(f, Not):
            return self.free(f.child)
        if isinstance(f, (And, Or)):
            return self.free(f.left) | self.free(f.right)
        if isinstance(f, App):
            payload = f.conn.payload
            guard_vars = frozenset(self.atoms[payload.guard][1])
            return (guard_vars | self.free(f.args[0])) - frozenset(payload.bound)
        raise TypeError(f"not a formula: {f!r}")


def gf_validate(f: Formula, inst: GFInstance) -> bool:
    """Independent grammar check: atoms, boolean closure, guarded quantifiers
    whose guard covers the body's free variables and the bound tuple."""
    if isinstance(f, Prop):
        return f.name in inst.atoms
    if isinstance(f, Not):
        return gf_validate(f.child, inst)
    if isinstance(f, (And, Or)):
        return gf_validate(f.left, inst) and gf_validate(f.right, inst)
    if isinstance(f, App):
        payload = f.conn.payload
        if f.conn.name != "ex" or payload is None or payload.guard not in inst.atoms:
            return False
        guard_vars = frozenset(inst.atoms[payload.guard][1])
        if not frozenset(payload.bound) <= guard_vars:
            return False
        if not inst.free(f.args[0]) <= guard_vars:
            return False
        return gf_validate(f.args[0], inst)
    return False


def gf_instance(variables=("u", "v"), relations=None, equality: bool = False) -> GFInstance:
    """Build a GF instance over a finite language.

    All atoms over (variables, relations) and all guarded quantifiers over
    those atoms are enumerated up front; at these language sizes both
    families stay small.
    """
    variables = tuple(sorted(set(variables)))
    if len(variables) < 2:
        raise EngineError("a GF instance needs at least two variables")
    relations = dict(relations) if relations is not None else {"R": 2}
    for name, arity in relations.items():
        if name == EQ:
            raise EngineError("spell equality via the equality flag, not a relation")
        if arity < 1:
            raise EngineError(f"relation {name!r} must have arity >= 1")

    atoms: dict[str, tuple[str, tuple[str, ...]]] = {}
    for rel in sorted(relations):
        for combo in itertools.product(variables, repeat=relations[rel]):
            atoms[_atom_id(rel, combo)] = (rel, combo)
    if equality:
        for combo in itertools.product(variables, repeat=2):
            atoms[_atom_id(EQ, combo)] = (EQ, combo)

    connectives: dict[str, ConnectiveSig] = {}
    j1: dict[str, frozenset[str]] = {}
    j2: dict[str, frozenset[str]] = {}
    for aid, (_, combo) in sorted(atoms.items()):
        free = tuple(sorted(set(combo)))
        for r in range(len(free) + 1):
            for bound in itertools.combinations(free, r):
                sig = ConnectiveSig("ex", 1, payload=GuardPayload(bound, aid))
                connectives[sig.key] = sig
                j1[sig.key] = frozenset(bound)
                j2[sig.key] = frozenset(free)

    ds = DomainSystem(
        points=frozenset(variables),
        iota_atomic={aid: frozenset(combo) for aid, (_, combo) in atoms.items()},
        j1=j1,
        j2=j2,
    )

    inst = GFInstance(
        logic=None,  # assigned below; the parse hooks close over the instance
        oracle=None,
        variables=variables,
        relations=relations,
        equality=equality,
        atoms=atoms,
        connectives=connectives,
    )

    def parse_atom(head, args, head_tok):
        if head != EQ and head not in relations:
            return None
        if head == EQ and not equality:
            raise ParseError("equality is disabled in this instance",
                             head_tok.line, head_tok.col)
        arity = 2 if head == EQ else relations[head]
        if len(args) != arity:
            raise ParseError(f"{head!r} has arity {arity}, got {len(args)}",
                             head_tok.line, head_tok.col)
        names = []
        for node in args:
            if isinstance(node, list) or node.text not in variables:
                raise ParseError(f"expected a variable of {list(variables)}",
                                 *_pos(node))
            names.append(node.text)
        return Prop(_atom_id(head, names))

    def parse_ex(args, recurse, head_tok):
        if len(args) != 3:
            raise ParseError("expected (ex (<vars>) <guard-atom> <body>)",
                             head_tok.line, head_tok.col)
        vars_node, guard_node, body_node = args
        if not isinstance(vars_node, list):
            raise ParseError("expected a (possibly empty) variable list",
                             *_pos(vars_node))
        bound = []
        for node in vars_node[1:]:
            if isinstance(node, list) or node.text not in variables:
                raise ParseError(f"expected a variable of {list(variables)}",
                                 *_pos(node))
            bound.append(node.text)
        guard = recurse(guard_node)
        if not isinstance(guard, Prop) or guard.name not in atoms:
            raise ParseError("the guard must be an atom", *_pos(guard_node))
        guard_vars = frozenset(atoms[guard.name][1])
        extra = frozenset(bound) - guard_vars
        if extra:
            raise ParseError(
                f"bound variables {sorted(extra)} do not occur in the guard {guard.name}",
                head_tok.line, head_tok.col,
            )
        sig = inst.quantifier(bound, guard.name)
        body = recurse(body_node)
        failures = ds.domain_failures(sig, (body,))
        if failures:
            _, it, border = failures[0]
            raise DomainViolation(
                f"the body's free variables {sorted(it)} are not covered by "
                f"the guard {guard.name} over {sorted(border)}"
            )
        return App(sig, (body,))

    oracle = GFOracle(inst)
    inst.logic = LogicDef(
        name="gf",
        domain=ds,
        oracle=oracle,
        connectives=connectives,
        propositions=frozenset(atoms),
        special_forms={"ex": parse_ex},
        compound_form=parse_atom,
    )
    inst.oracle = oracle
    return inst


def _pos(node):
    tok = node[0] if isinstance(node, list) else node
    return tok.line, tok.col


class _FOContext(Context):
    def __init__(self, size: int, interp: dict[str, frozenset], assign_vars, inst: GFInstance):
        super().__init__()
        self.size = size
        self.interp = interp
        self.assign_vars = tuple(assign_vars)
        self.inst = inst
        self.points = size ** len(self.assign_vars)
        self.full = (1 << self.points) - 1

    def _env(self, point: int) -> dict[str, int]:
        env, rest = {}, point
        for v in self.assign_vars:
            env[v] = rest % self.size
            rest //= self.size
        return env

    def _compute(self, f: Formula) -> int:
        # Boolean nodes combine memoized masks, so subtrees shared between
        # many member formulas are evaluated once per structure; atoms and
        # quantifiers drop to per-assignment evaluation.
        if isinstance(f, Not):
            return self.full ^ self.eval(f.child)
        if isinstance(f, And):
            return self.eval(f.left) & self.eval(f.right)
        if isinstance(f, Or):
            return self.eval(f.left) | self.eval(f.right)
        mask = 0
        for point in range(self.points):
            if self._holds(f, self._env(point)):
                mask |= 1 << point
        return mask

    def _holds(self, f: Formula, env: dict[str, int]) -> bool:
        if isinstance(f, Prop):
            return self._atom_holds(f.name, env)
        if isinstance(f, Not):
            return not self._holds(f.child, env)
        if isinstance(f, And):
            return self._holds(f.left, env) and self._holds(f.right, env)
        if isinstance(f, Or):
            return self._holds(f.left, env) or self._holds(f.right, env)
        if isinstance(f, App):
            payload = f.conn.payload
            for values in itertools.product(range(self.size), repeat=len(payload.bound)):
                inner = dict(env)
                inner.update(zip(payload.bound, values))
                if self._atom_holds(payload.guard, inner) and self._holds(f.args[0], inner):
                    return True
            return False
        raise TypeError(f"not a formula: {f!r}")

    def _atom_holds(self, atom_id: str, env: dict[str, int]) -> bool:
        rel, vars_ = self.inst.atoms[atom_id]
        try:
            tup = tuple(env[v] for v in vars_)
        except KeyError as e:
            raise EngineError(
                f"variable {e.args[0]!r} of {atom_id} is not covered by the "
                f"assignment variables {list(self.assign_vars)}"
            ) from None
        if rel == EQ:
            return tup[0] == tup[1]
        return tup in self.interp[rel]

    def describe(self) -> dict:
        return {
            "kind": "structure",
            "universe": self.size,
            "relations": {r: sorted(map(list, ts)) for r, ts in sorted(self.interp.items())},
        }

    def point_desc(self, point: int) -> dict:
        return {"assignment": self._env(point)}


class GFOracle(Oracle):
    """Exhaustive search over relational structures up to the universe bound."""

    exact = False

    def __init__(self, inst: GFInstance, budget: int = DEFAULT_BUDGET):
        super().__init__(budget)
        self.inst = inst

    def assignment_vars(self, f: Formula) -> frozenset[str]:
        return self.inst.free(f)

    def contexts(self, gen: Generator, bound: int):
        self.guard(gen, bound)
        assign_vars = sorted(gen.E)
        rels = sorted(self.inst.relations.items())
        for size in range(1, bound + 1):
            spaces = []
            for _, arity in rels:
                spaces.append(list(itertools.product(range(size), repeat=arity)))
            code_ranges = [range(1 << len(tuples)) for tuples in spaces]
            for codes in itertools.product(*code_ranges):
                interp = {}
                for (name, _), tuples, code in zip(rels, spaces, codes):
                    interp[name] = frozenset(
                        t for j, t in enumerate(tuples) if code >> j & 1
                    )
                yield _FOContext(size, interp, assign_vars, self.inst)

    def model_bits(self, gen: Generator, size: int) -> int:
        return sum(size ** arity for arity in self.inst.relations.values())


def fo_oracle(inst: GFInstance, f: Formula, bound: int = 3) -> OracleReport:
    """Bounded first-order verdict for a GF formula of ``inst``."""
    return inst.oracle.check_valid(f, bound=bound)
