"""The propositional instance: singleton point set, no extra connectives.

Its degree-0 spaces are exactly the minterm lists over X, and the oracle
is an exact truth table.
"""
from __future__ import annotations

from ..bitsets import zero_bit_pattern
from ..domain_system import Generator
from ..errors import BudgetExceeded, EngineError
from ..syntax import LogicDef
from .base import Context, Instance, Oracle, one_point_domain


class _TruthTableContext(Context):
    def __init__(self, props: tuple[str, ...]):
        super().__init__()
        self.props = props
        self.points = 1 << len(props)
        self.full = (1 << self.points) - 1

    def prop_mask(self, name: str) -> int:
        try:
            j = self.props.index(name)
        except ValueError:
            raise EngineError(f"proposition {name!r} is outside the table over {self.props}")
        # rows where bit j of the row index is 1 are the rows making `name` true
        return self.full ^ zero_bit_pattern(self.points, j)

    def app_mask(self, conn, arg_masks) -> int:
        raise EngineError(f"the propositional oracle cannot evaluate {conn.key}")

    def describe(self) -> dict:
        return {"kind": "truth-table", "propositions": list(self.props)}

    def point_desc(self, point: int) -> dict:
        return {"assignment": {p: bool(point >> j & 1) for j, p in enumerate(self.props)}}


class TruthTableOracle(Oracle):
    """Exact validity over all assignments to the given propositions."""

    exact = True

    def blocks(self, gen: Generator, bound: int):
        self.guard(gen, bound)
        yield _TruthTableContext(tuple(sorted(gen.X)))

    def estimate_contexts(self, gen: Generator, bound: int, limit: int) -> int:
        return 1

    def guard(self, gen: Generator, bound: int) -> None:
        if 1 << len(gen.X) > self.budget:
            raise BudgetExceeded(
                f"2**{len(gen.X)} truth-table rows exceed the budget {self.budget}"
            )


def propositional_instance(propositions=None) -> Instance:
    """Build the instance; ``propositions=None`` accepts any identifier."""
    logic = LogicDef(
        name="prop",
        domain=one_point_domain(),
        propositions=frozenset(propositions) if propositions is not None else None,
    )
    return Instance(logic=logic, oracle=TruthTableOracle())
