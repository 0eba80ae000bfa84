"""Shared oracle machinery for the shipped logic instances.

An oracle enumerates *model contexts*; each context evaluates formulas to
a bitmask over its evaluation points (truth-table rows, Kripke worlds,
variable assignments, frame elements).  Validity means full mask in every
context.  All searches are exhaustive up to a size bound and guarded by a
case budget; only the propositional oracle is exact.

Checks run over *blocks*: consecutive models, in the order ``contexts``
enumerates them, evaluated together as one context.  Model ``i`` of a
block owns the mask bits ``i*points`` to ``i*points + points - 1``, with
point ``w`` at bit ``i*points + w``, so one mask operation serves every
model of the block and the lowest set bit of a failure mask is the first
failing model and point.  A plain context is a one-model block, and that
is what ``Oracle.blocks`` yields unless an oracle packs its models (the
Kripke oracle does; see ``modal``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from ..bitsets import iter_bits
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
    """One model: evaluates formulas to masks over its points, memoized.

    Seen as a block it holds one model; block subclasses set ``models``
    and give ``points`` per model.
    """

    points: int
    full: int
    models = 1

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

    def model(self, i: int) -> "Context":
        """Model ``i`` of this block as a context of its own."""
        return self


class Failure(NamedTuple):
    """The first failing model of a check and the point it fails at."""

    contexts: int  # models checked up to and including this one
    context: Context
    point: int


class Oracle:
    """Base bounded-model oracle; subclasses enumerate their contexts."""

    exact = False

    def __init__(self, budget: int = DEFAULT_BUDGET):
        self.budget = budget

    def contexts(self, gen: Generator, bound: int):
        raise NotImplementedError

    def blocks(self, gen: Generator, bound: int):
        """The models up to ``bound`` as blocks, in ``contexts`` order."""
        return self.contexts(gen, bound)

    def model_bits(self, gen: Generator, size: int) -> int:
        """log2 of the number of models of one size."""
        raise NotImplementedError

    def estimate_contexts(self, gen: Generator, bound: int, limit: int) -> int:
        """The number of models up to ``bound``, or ``limit + 1`` once it
        passes ``limit``.  Each size's count is a power of two and is
        compared by its exponent before it is built."""
        total = 0
        for size in range(1, bound + 1):
            bits = self.model_bits(gen, size)
            if bits >= limit.bit_length():
                return limit + 1
            total += 1 << bits
            if total > limit:
                return limit + 1
        return total

    def guard(self, gen: Generator, bound: int) -> None:
        if self.estimate_contexts(gen, bound, self.budget) > self.budget:
            raise BudgetExceeded(
                f"more than {self.budget} models at bound {bound} exceed the budget "
                f"{self.budget}"
            )

    def first_failures(self, gen: Generator, bound: int, checks) -> tuple[int, list]:
        """Run every check over every model up to ``bound``.

        A check maps a block to the mask of its failing bits and is not run
        again once it has failed.  Returns the number of models enumerated
        and, per check, its ``Failure`` or None.
        """
        failures: list[Failure | None] = [None] * len(checks)
        left = len(checks)
        done = 0
        for block in self.blocks(gen, bound):
            for j, check in enumerate(checks):
                if failures[j] is not None:
                    continue
                bad = check(block)
                if bad:
                    i, point = divmod((bad & -bad).bit_length() - 1, block.points)
                    failures[j] = Failure(done + i + 1, block.model(i), point)
                    left -= 1
            done += block.models
            if not left:
                break
        return done, failures

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
        checked, (fail,) = self.first_failures(gen, bound, [lambda b: b.full ^ b.eval(f)])
        if fail is None:
            return OracleReport(ok=True, exact=self.exact, contexts=checked, bound=bound)
        ctx = fail.context
        return OracleReport(
            ok=False,
            exact=self.exact,
            contexts=fail.contexts,
            bound=bound,
            countermodel={"context": ctx.describe(), "point": ctx.point_desc(fail.point)},
        )


def split_relation_code(code: int, worlds: int) -> tuple[int, ...]:
    """Decode a binary-relation code into per-world successor masks."""
    ones = (1 << worlds) - 1
    return tuple((code >> (w * worlds)) & ones for w in range(worlds))


def masks_to_pairs(rel: tuple[int, ...]) -> list[list[int]]:
    return [[w, v] for w, succ in enumerate(rel) for v in iter_bits(succ)]


def mask_to_list(mask: int) -> list[int]:
    return list(iter_bits(mask))
