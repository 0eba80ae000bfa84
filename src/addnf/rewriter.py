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
from .syntax import And, Formula, Not, Prop, disj_all


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

    def app_mask(self, conn, args) -> int:
        sp = self.sp
        child = sp.children.get(conn.key)
        if child is None:
            raise EngineError(
                f"{conn.key} has no child space under {sp.gen.key}; "
                "the generator should have been rejected as unsuitable"
            )
        model = self.reached.get(child) or _SpaceModel(child, self.reached)
        arg_masks = list(map(model.eval, args))
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

    Exact where the oracle is exact for the generator, refutation-complete
    only up to ``bound`` otherwise.  A one-item ``verify_many``.
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
    items = list(items)
    oracle.admit(sp.gen, [f for f, _ in items])
    checks = [_differs(f, sp, sigma) for f, sigma in items]
    return oracle.check(sp.gen, bound, checks)


def _differs(f: Formula, sp: ConstituentSpace, sigma):
    """The check that ``f`` agrees with the disjunction of the members in
    ``sigma``: the points of a block where they differ, and a failing point
    described.

    At each point exactly one member holds, the one whose index spells the
    signs its literals take there, so the disjunction holds where that
    index is in sigma.  Sigma is evaluated by Shannon expansion over the
    index bits, most significant first, on its decision diagram (Bryant
    1986, built once by ``_diagram``): a node takes its low child where
    its literal holds and its high child elsewhere.  Where a literal is
    constant on the block, as the high propositions are on a block of
    one-point frames, only the child it selects is read.  Node values are
    memoized per block.
    """
    literals = sp.literals()
    root = _diagram(sp.index_mask(sigma), len(literals))

    def fails(block) -> int:
        full = block.full
        memo = {}

        def value(node) -> int:
            if type(node) is int:
                return full if node else 0
            m = memo.get(id(node))
            if m is None:
                level, lo, hi = node
                lit = block.eval(literals[level])
                if lit == full or not lit:
                    m = value(lo if lit else hi)
                else:
                    m = (lit & value(lo)) | ((full ^ lit) & value(hi))
                memo[id(node)] = m
            return m

        return block.eval(f) ^ value(root)

    def explain(block, i, point) -> dict:
        holds = bool(block.eval(f) >> (i * block.points + point) & 1)
        return {**block.at(i, point), "formula_holds": holds, "disjunction_holds": not holds}

    return fails, explain


def _diagram(want: int, n: int):
    """The reduced decision diagram of the index set ``want`` over ``n``
    index bits: 0 or 1 for an empty or full slice, else a node ``(level,
    low, high)`` splitting a slice into its halves.  A slice made of two
    equal halves is its half; equal slices share one node."""
    ones = [(1 << (1 << (n - level))) - 1 for level in range(n + 1)]
    nodes = {}

    def node(level: int, s: int):
        # s: the slice of want under one sign prefix of ``level`` literals
        if not s:
            return 0
        if s == ones[level]:
            return 1
        out = nodes.get((level, s))
        if out is None:
            lo, hi = s & ones[level + 1], s >> (1 << (n - level - 1))
            if lo == hi:
                out = node(level + 1, lo)
            else:
                out = (level, node(level + 1, lo), node(level + 1, hi))
            nodes[level, s] = out
        return out

    return node(0, want)
