"""Rewriting a formula into an equivalent disjunction of constituents.

The members of a space are the points of a canonical model: a member's
color fixes which propositions hold there, and its positively signed bar
tuples fix where each connective holds.  So the member set equivalent to
``f`` is ``f``'s truth mask in the space read as a model, computed by the
oracles' ``Context`` evaluator; ``normalize`` never consults an oracle.
Only the application case is the space's own: ``conn(a0..ah-1)`` takes
each argument's mask in the child space at the connective's j2 border,
one degree down, and keeps the members having at least one positively
signed bar tuple drawn from those masks.

Masks are big-int bitmasks internally, surfaced as frozensets of member
indices.  ``verify`` checks ``f`` against its disjunction without
rendering a member: a member's index is the sign word of the space's
literals, so the disjunction is read off the literal masks by splitting
sigma on the index bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .bitsets import iter_bits
from .constituents import DEFAULT_CAP, ConstituentSpace, space
from .domain_system import DomainSystem, Generator, suitable
from .errors import EngineError, UnsuitableGenerator
from .logics.base import DEFAULT_BOUND, Context, Report
from .syntax import And, App, Formula, Not, Prop, disj_all


@dataclass(frozen=True)
class NormalizationResult:
    generator: Generator
    sigma: frozenset[int]
    space: ConstituentSpace = field(compare=False, repr=False)

    def describe(self) -> dict:
        return {
            "generator": self.generator.describe(),
            "sigma": sorted(self.sigma),
            "size": len(self.sigma),
            "space_size": self.space.size,
        }


def normalize(
    f: Formula,
    gen: Generator,
    ds: DomainSystem,
    cap: int = DEFAULT_CAP,
) -> NormalizationResult:
    """Compute the member set of N(gen) equivalent to ``f``."""
    report = suitable(gen, f, ds)
    if not report:
        raise UnsuitableGenerator(report)
    sp = space(gen, ds, cap)
    mask = _SpaceModel(sp, {}).eval(f)
    return NormalizationResult(generator=gen, sigma=frozenset(iter_bits(mask)), space=sp)


class _SpaceModel(Context):
    """A constituent space read as a model whose points are its members.

    ``reached`` maps each space reached to its model and is shared with
    the child models, so each subformula is evaluated once per space.
    """

    def __init__(self, sp: ConstituentSpace, reached: dict):
        super().__init__()
        self.sp = sp
        self.reached = reached
        self.points = sp.size
        self.full = sp.full_mask
        reached[sp] = self

    def prop_mask(self, name: str) -> int:
        try:
            j = self.sp.xtilde.index(name)
        except ValueError:
            raise EngineError(
                f"proposition {name!r} is not in X-tilde {list(self.sp.xtilde)}"
            ) from None
        return self.sp.sign_mask(j)

    def _compute(self, f: Formula) -> int:
        if not isinstance(f, App):
            return super()._compute(f)
        sp, conn = self.sp, f.conn
        child = sp.children.get(conn.key)
        if child is None:
            raise EngineError(
                f"{conn.key} has no child space under {sp.gen.key}; "
                "the generator should have been rejected as unsuitable"
            )
        model = self.reached.get(child) or _SpaceModel(child, self.reached)
        arg_masks = [model.eval(a) for a in f.args]
        nx, mask = len(sp.xtilde), 0
        for t, item in enumerate(sp.bar):
            if item.conn != conn:
                continue
            if all((arg_masks[j] >> c) & 1 for j, c in enumerate(item.children)):
                mask |= sp.sign_mask(nx + t)
        return mask


def disjunction(result: NormalizationResult) -> Formula:
    """Render the result as one formula, members in canonical index order.

    An empty member set renders as the designated contradiction ``q and
    not q`` over the least proposition of X-tilde.
    """
    sp = result.space
    if not result.sigma:
        q = Prop(sp.xtilde[0])
        return And(q, Not(q))
    return disj_all([sp.formula(i) for i in sorted(result.sigma)])


def verify(f: Formula, result: NormalizationResult, oracle,
           bound: int = DEFAULT_BOUND) -> Report:
    """Search for a model point separating ``f`` from its disjunction.

    Exact for exact oracles, refutation-complete only up to ``bound``
    otherwise.  A one-item ``verify_many``.
    """
    return verify_many(result.space, [(f, result.sigma)], oracle, bound)[0]


def verify_many(sp: ConstituentSpace, items, oracle,
                bound: int = DEFAULT_BOUND) -> list[Report]:
    """``verify`` for many (formula, sigma) pairs on one space.

    Each block of models is evaluated once for the whole batch, and the
    block's memo shares the masks of the space's literals across the
    items.  No member is rendered: each disjunction is read off the
    literal masks by splitting sigma on the index bits (see ``_differs``),
    so its cost does not grow with the size of sigma.
    """
    checks = [_differs(f, sp, sigma) for f, sigma in items]
    return oracle.check(sp.gen, bound, checks)


def _differs(f: Formula, sp: ConstituentSpace, sigma):
    """The check that ``f`` agrees with the disjunction of the members in
    ``sigma``: the points of a block where they differ, and a failing point
    described.

    At each point exactly one member holds, the one whose index spells the
    signs its literals take there, so the disjunction holds where that
    index is in sigma.  Sigma is evaluated by Shannon expansion over the
    index bits, most significant first, as a decision diagram (Bryant
    1986): a slice of sigma splits into halves, the low half taken where
    the literal holds, and a slice that is empty, full or made of two
    equal halves needs no literal.  Slices are memoized per block.
    """
    want = sp.index_mask(sigma)
    literals = sp.literals()
    n = len(literals)
    ones = [(1 << (1 << (n - level))) - 1 for level in range(n + 1)]

    def fails(block) -> int:
        full = block.full
        memo = {}

        def expand(level: int, s: int) -> int:
            # s: the slice of sigma under one sign prefix of ``level`` literals
            if not s:
                return 0
            if s == ones[level]:
                return full
            m = memo.get((level, s))
            if m is None:
                lo, hi = s & ones[level + 1], s >> (1 << (n - level - 1))
                if lo == hi:
                    m = expand(level + 1, lo)
                else:
                    lit = block.eval(literals[level])
                    m = (lit & expand(level + 1, lo)) | ((full ^ lit) & expand(level + 1, hi))
                memo[level, s] = m
            return m

        return block.eval(f) ^ expand(0, want)

    def explain(ctx, point) -> dict:
        holds = bool(ctx.eval(f) >> point & 1)
        return {**ctx.at(point), "formula_holds": holds, "disjunction_holds": not holds}

    return fails, explain
