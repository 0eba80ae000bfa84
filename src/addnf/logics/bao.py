"""Boolean algebras with normal additive operators, as term logic.

Terms correspond to formulas through ``plus <-> or``, ``times <-> and``,
``minus <-> not``; variables and constant symbols take the proposition
role, the extra operators are full connectives.  The literals ``0`` and
``1`` parse as ``(times d (minus d))`` and ``(plus d (minus d))`` over the
least symbol d, since the formula core has no bottom/top primitive.

The oracle evaluates terms in complex algebras of finite frames: a rank-h
operator is the existential image of an (h+1)-ary relation, a constant an
arbitrary subset.  Complex algebras belong to the class, so a
counterexample refutes an equation soundly; the search is not complete
for validity and is documented as a bounded check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..domain_system import DomainSystem, Generator
from ..errors import EngineError
from ..syntax import And, ConnectiveSig, Formula, LogicDef, Not, Or, Prop, render_formula
from .base import DEFAULT_BUDGET, Context, Oracle, OracleReport, mask_to_list

POINT = "*"


class _AlgebraContext(Context):
    def __init__(self, size: int, relations: dict[str, tuple], values: dict[str, int]):
        super().__init__()
        self.points = size
        self.full = (1 << size) - 1
        self.relations = relations
        self.values = values

    def prop_mask(self, name: str) -> int:
        try:
            return self.values[name]
        except KeyError:
            raise EngineError(f"symbol {name!r} has no value in this algebra")

    def app_mask(self, conn, arg_masks) -> int:
        out = 0
        for head, *rest in self.relations[conn.key]:
            if all(arg_masks[j] >> w & 1 for j, w in enumerate(rest)):
                out |= 1 << head
        return out

    def describe(self) -> dict:
        return {
            "kind": "complex-algebra",
            "frame_size": self.points,
            "relations": {k: sorted(map(list, r)) for k, r in sorted(self.relations.items())},
            "values": {k: mask_to_list(v) for k, v in sorted(self.values.items())},
        }

    def point_desc(self, point: int) -> dict:
        return {"element": point}


class ComplexAlgebraOracle(Oracle):
    """Counterexample search over complex algebras of frames up to the bound."""

    exact = False

    def __init__(self, constants, budget: int = DEFAULT_BUDGET):
        super().__init__(budget)
        self.constants = frozenset(constants)

    def contexts(self, gen: Generator, bound: int):
        self.guard(gen, bound)
        ops = gen.sorted_conns()
        symbols = sorted(gen.X)
        for size in range(1, bound + 1):
            rel_spaces = [
                list(itertools.product(range(size), repeat=op.rank + 1)) for op in ops
            ]
            rel_ranges = [range(1 << len(tuples)) for tuples in rel_spaces]
            val_ranges = [range(1 << size) for _ in symbols]
            for codes in itertools.product(*rel_ranges):
                relations = {
                    op.key: tuple(t for j, t in enumerate(tuples) if code >> j & 1)
                    for op, tuples, code in zip(ops, rel_spaces, codes)
                }
                for vals in itertools.product(*val_ranges):
                    values = dict(zip(symbols, vals))
                    yield _AlgebraContext(size, relations, values)

    def model_bits(self, gen: Generator, size: int) -> int:
        return size * len(gen.X) + sum(size ** (op.rank + 1) for op in gen.Y)

    def check_equal(self, lhs: Formula, rhs: Formula, bound: int,
                    gen: Generator | None = None) -> OracleReport:
        """Do both terms take the same value in every algebra up to the bound?"""
        if gen is None:
            g1, g2 = self.vocab_for(lhs), self.vocab_for(rhs)
            gen = Generator(0, g1.X | g2.X, g1.Y | g2.Y, frozenset())
        checked, (fail,) = self.first_failures(
            gen, bound, [lambda b: b.eval(lhs) ^ b.eval(rhs)]
        )
        if fail is None:
            return OracleReport(ok=True, exact=self.exact, contexts=checked, bound=bound)
        ctx = fail.context
        return OracleReport(
            ok=False,
            exact=self.exact,
            contexts=fail.contexts,
            bound=bound,
            countermodel={
                "context": ctx.describe(),
                "lhs_value": mask_to_list(ctx.eval(lhs)),
                "rhs_value": mask_to_list(ctx.eval(rhs)),
            },
        )


@dataclass
class BAOInstance:
    logic: LogicDef = field(repr=False)
    oracle: ComplexAlgebraOracle = field(repr=False)
    operators: dict[str, int]
    constants: tuple[str, ...]
    variables: tuple[str, ...]

    @property
    def domain(self) -> DomainSystem:
        return self.logic.domain

    @property
    def least_symbol(self) -> str:
        return min(self.variables + self.constants)

    def zero(self) -> Formula:
        d = Prop(self.least_symbol)
        return And(d, Not(d))

    def unit(self) -> Formula:
        d = Prop(self.least_symbol)
        return Or(d, Not(d))

    def render_term(self, f: Formula) -> str:
        return render_formula(f, self.logic)

    def check_equal(self, lhs: Formula, rhs: Formula, bound: int = 3) -> OracleReport:
        return self.oracle.check_equal(lhs, rhs, bound)


def bao_instance(operators=None, constants=(), variables=("x",)) -> BAOInstance:
    operators = dict(operators) if operators is not None else {"f": 1}
    for name, rank in operators.items():
        if rank < 1:
            raise EngineError(f"operator {name!r} must have rank >= 1")
    constants = tuple(sorted(constants))
    variables = tuple(sorted(variables))
    symbols = set(variables) | set(constants)
    if len(symbols) != len(variables) + len(constants):
        raise EngineError("variables and constants must be disjoint")
    if not symbols:
        raise EngineError("the term language needs at least one variable or constant")
    if symbols & set(operators):
        raise EngineError("operator names must not collide with symbols")

    v = frozenset((POINT,))
    sigs = {name: ConnectiveSig(name, rank) for name, rank in sorted(operators.items())}
    ds = DomainSystem(
        points=v,
        iota_atomic={},
        j1={s.key: frozenset() for s in sigs.values()},
        j2={s.key: v for s in sigs.values()},
        iota_default=v,
    )
    oracle = ComplexAlgebraOracle(constants)
    least = min(symbols)

    def zero_one(token: str):
        d = Prop(least)
        if token == "0":
            return And(d, Not(d))
        if token == "1":
            return Or(d, Not(d))
        return None

    logic = LogicDef(
        name="bao",
        domain=ds,
        oracle=oracle,
        connectives=sigs,
        propositions=frozenset(symbols),
        spell_not="minus",
        spell_and="times",
        spell_or="plus",
        sugar=False,
        token_form=zero_one,
    )
    return BAOInstance(
        logic=logic,
        oracle=oracle,
        operators=operators,
        constants=constants,
        variables=variables,
    )


def bao_oracle(inst: BAOInstance, lhs: Formula, rhs: Formula, bound: int = 3) -> OracleReport:
    """Bounded counterexample search for the equation lhs = rhs."""
    return inst.check_equal(lhs, rhs, bound)
