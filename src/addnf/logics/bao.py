"""Boolean algebras with normal additive operators, as term logic.

Terms correspond to formulas through ``plus <-> or``, ``times <-> and``,
``minus <-> not``; variables and constant symbols take the proposition
role, the extra operators are full connectives.  The literals ``0`` and
``1`` parse as ``(times d (minus d))`` and ``(plus d (minus d))`` over the
least symbol d, since the formula core has no bottom/top primitive.

The oracle is the shared ``RelationalOracle`` (see ``base``): it
evaluates terms in the complex algebras of finite frames, where a rank-h
operator is the existential image of an (h+1)-ary relation and a symbol
an arbitrary subset.  Complex algebras belong to the class, so a
counterexample refutes an equation soundly; the search is not complete
for validity and is documented as a bounded check.
"""
from __future__ import annotations

from ..errors import EngineError
from ..syntax import And, ConnectiveSig, LogicDef, Not, Or, Prop
from .base import Instance, RelationalOracle, one_point_domain


def bao_instance(operators=None, constants=(), variables=("x",)) -> Instance:
    """Build the term logic; its ``0``/``1`` terms are ``logic.tokens``, and
    ``render_formula(f, logic)`` spells a term in its words."""
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

    sigs = {name: ConnectiveSig(name, rank) for name, rank in sorted(operators.items())}
    d = Prop(min(symbols))
    logic = LogicDef(
        name="bao",
        domain=one_point_domain(sigs.values()),
        connectives=sigs,
        propositions=frozenset(symbols),
        spell_not="minus",
        spell_and="times",
        spell_or="plus",
        sugar=False,
        tokens={"0": And(d, Not(d)), "1": Or(d, Not(d))},
    )
    return Instance(logic=logic, oracle=RelationalOracle())
