"""Shared oracle machinery for the shipped logic instances.

An oracle enumerates *model contexts*; each context evaluates formulas to
a bitmask over its evaluation points (truth-table rows, Kripke worlds,
variable assignments, frame elements).  Validity means full mask in every
context.  All searches are exhaustive up to a size bound and guarded by a
case budget; only the propositional oracle is exact.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..bitsets import int_text, iter_bits
from ..domain_system import Generator
from ..errors import BudgetExceeded
from ..syntax import And, App, Formula, Not, Or, Prop, vocabulary

DEFAULT_BOUND = 3
DEFAULT_BUDGET = 2_000_000


@dataclass(frozen=True)
class OracleReport:
    ok: bool
    exact: bool
    contexts: int
    bound: int
    countermodel: dict | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "exact": self.exact,
            "contexts": self.contexts,
            "bound": self.bound,
            "countermodel": self.countermodel,
        }


class Context:
    """One model: evaluates formulas to masks over its points, memoized."""

    points: int
    full: int

    def __init__(self):
        self._memo: dict[int, tuple] = {}

    def eval(self, f: Formula) -> int:
        key = id(f)
        hit = self._memo.get(key)
        if hit is not None and hit[0] is f:
            return hit[1]
        m = self._compute(f)
        self._memo[key] = (f, m)
        return m

    def _compute(self, f: Formula) -> int:
        if isinstance(f, Prop):
            return self.prop_mask(f.name)
        if isinstance(f, Not):
            return self.full ^ self.eval(f.child)
        if isinstance(f, And):
            return self.eval(f.left) & self.eval(f.right)
        if isinstance(f, Or):
            return self.eval(f.left) | self.eval(f.right)
        if isinstance(f, App):
            return self.app_mask(f.conn, [self.eval(a) for a in f.args])
        raise TypeError(f"not a formula: {f!r}")

    def prop_mask(self, name: str) -> int:
        raise NotImplementedError

    def app_mask(self, conn, arg_masks) -> int:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def point_desc(self, point: int):
        return point


class Oracle:
    """Base bounded-model oracle; subclasses enumerate their contexts."""

    exact = False

    def __init__(self, budget: int = DEFAULT_BUDGET):
        self.budget = budget

    def contexts(self, gen: Generator, bound: int):
        raise NotImplementedError

    def estimate_contexts(self, gen: Generator, bound: int) -> int:
        raise NotImplementedError

    def guard(self, gen: Generator, bound: int) -> None:
        est = self.estimate_contexts(gen, bound)
        if est > self.budget:
            raise BudgetExceeded(
                f"{int_text(est)} models at bound {bound} exceed the budget {self.budget}"
            )

    def vocab_for(self, f: Formula) -> Generator:
        props, conns = vocabulary(f)
        return Generator(0, props, conns, self.assignment_vars(f))

    def assignment_vars(self, f: Formula) -> frozenset[str]:
        return frozenset()

    def check_valid(self, f: Formula, bound: int = DEFAULT_BOUND,
                    gen: Generator | None = None) -> OracleReport:
        """Is ``f`` true at every point of every model up to ``bound``?"""
        if gen is None:
            gen = self.vocab_for(f)
        checked = 0
        for ctx in self.contexts(gen, bound):
            checked += 1
            m = ctx.eval(f)
            if m != ctx.full:
                point = next(iter_bits(ctx.full ^ m))
                return OracleReport(
                    ok=False,
                    exact=self.exact,
                    contexts=checked,
                    bound=bound,
                    countermodel={"context": ctx.describe(), "point": ctx.point_desc(point)},
                )
        return OracleReport(ok=True, exact=self.exact, contexts=checked, bound=bound)


def split_relation_code(code: int, worlds: int) -> tuple[int, ...]:
    """Decode a binary-relation code into per-world successor masks."""
    ones = (1 << worlds) - 1
    return tuple((code >> (w * worlds)) & ones for w in range(worlds))


def masks_to_pairs(rel: tuple[int, ...]) -> list[list[int]]:
    return [[w, v] for w, succ in enumerate(rel) for v in iter_bits(succ)]


def mask_to_list(mask: int) -> list[int]:
    return list(iter_bits(mask))
