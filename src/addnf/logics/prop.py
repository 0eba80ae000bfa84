"""The propositional instance: singleton point set, no extra connectives.

Its degree-0 spaces are exactly the minterm lists over X.  Its oracle is
the shared ``RelationalOracle`` (see ``base``), which with no connective
searches the one-point frames alone: one per valuation, an exact truth
table.
"""
from __future__ import annotations

from ..syntax import LogicDef
from .base import Instance, RelationalOracle, one_point_domain


def propositional_instance(propositions=None) -> Instance:
    """Build the instance; ``propositions=None`` accepts any identifier."""
    logic = LogicDef(
        name="prop",
        domain=one_point_domain(),
        propositions=frozenset(propositions) if propositions is not None else None,
    )
    return Instance(logic=logic, oracle=RelationalOracle())
