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

Algebras of one frame size are numbered in the order
``ComplexAlgebraOracle.contexts`` enumerates them.  Read in binary, from
the low bit up, the ordinal holds each symbol's value (a frame-size
field, the last sorted symbol lowest), then each operator's relation
code (the last sorted operator lowest; bit j of the code is tuple j of
``product(range(size), repeat=rank + 1)``).  For rank 1 that is the
Kripke layout, so blocks of algebras are evaluated by the shared
``RelationalBlock`` (see ``base``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..domain_system import DomainSystem, Generator
from ..errors import EngineError
from ..syntax import And, ConnectiveSig, Formula, LogicDef, Not, Or, Prop, render_formula
from .base import (DEFAULT_BOUND, Instance, PackedOracle, RelationalBlock, Report, Where,
                   mask_to_list, stacked)

POINT = "*"


class _AlgebraBlock(RelationalBlock):
    missing = "symbol {!r} has no value in this algebra"

    def describe(self) -> dict:
        where = self.layout.where
        return {
            "kind": "complex-algebra",
            "frame_size": self.points,
            "relations": where.tuples(self.start),
            "values": where.values(self.start),
        }

    def point_desc(self, point: int) -> dict:
        return {"element": point}


class ComplexAlgebraOracle(PackedOracle):
    """Counterexample search over complex algebras of frames up to the bound."""

    exact = False
    block_type = _AlgebraBlock

    def where(self, gen: Generator, size: int) -> Where:
        symbols = sorted(gen.X)
        ops = gen.sorted_conns()
        values = stacked(0, [size] * len(symbols))
        codes = stacked(size * len(symbols), [size ** (op.rank + 1) for op in ops])
        return Where(
            size, size,
            dict(zip(symbols, values)),
            {op.key: (off, op.rank + 1) for op, off in zip(ops, codes)},
        )

    def model_bits(self, gen: Generator, size: int) -> int:
        return size * len(gen.X) + sum(size ** (op.rank + 1) for op in gen.Y)

    def check_equal(self, lhs: Formula, rhs: Formula, bound: int = DEFAULT_BOUND,
                    gen: Generator | None = None) -> Report:
        """Do both terms take the same value in every algebra up to the bound?"""
        if gen is None:
            g1, g2 = self.vocab_for(lhs), self.vocab_for(rhs)
            gen = Generator(0, g1.X | g2.X, g1.Y | g2.Y, frozenset())

        def explain(ctx, point) -> dict:
            return {
                "context": ctx.describe(),
                "lhs_value": mask_to_list(ctx.eval(lhs)),
                "rhs_value": mask_to_list(ctx.eval(rhs)),
            }

        return self.check(gen, bound, [(lambda b: b.eval(lhs) ^ b.eval(rhs), explain)])[0]


def _zero_one(least: str, token: str) -> Formula | None:
    """The literal ``0`` or ``1`` over the least symbol; None for other tokens."""
    d = Prop(least)
    if token == "0":
        return And(d, Not(d))
    if token == "1":
        return Or(d, Not(d))
    return None


@dataclass
class BAOInstance(Instance):
    operators: dict[str, int]
    constants: tuple[str, ...]
    variables: tuple[str, ...]

    @property
    def least_symbol(self) -> str:
        return min(self.variables + self.constants)

    def zero(self) -> Formula:
        return _zero_one(self.least_symbol, "0")

    def unit(self) -> Formula:
        return _zero_one(self.least_symbol, "1")

    def render_term(self, f: Formula) -> str:
        return render_formula(f, self.logic)


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
    logic = LogicDef(
        name="bao",
        domain=ds,
        connectives=sigs,
        propositions=frozenset(symbols),
        spell_not="minus",
        spell_and="times",
        spell_or="plus",
        sugar=False,
        token_form=partial(_zero_one, min(symbols)),
    )
    return BAOInstance(
        logic=logic,
        oracle=ComplexAlgebraOracle(),
        operators=operators,
        constants=constants,
        variables=variables,
    )
