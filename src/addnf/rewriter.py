"""Rewriting a formula into an equivalent disjunction of constituents.

``normalize`` is a pure structural recursion over the formula; it never
consults a semantic oracle.  The five cases:

* a proposition keeps the members whose color contains it;
* negation complements the index set;
* conjunction intersects, disjunction unites;
* an application ``conn(a0..ah-1)`` normalizes each argument one degree
  down at the connective's j2 border, then keeps the members having at
  least one positively signed bar tuple drawn from the argument results.

Index sets are handled as big-int bitmasks internally and surfaced as
frozensets of member indices.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .bitsets import iter_bits
from .constituents import DEFAULT_CAP, ConstituentSpace, space
from .domain_system import DomainSystem, Generator, suitable
from .errors import EngineError, UnsuitableGenerator
from .logics.base import Report
from .syntax import And, App, Formula, Not, Or, Prop, disj_all


@dataclass(frozen=True)
class NormalizationResult:
    generator: Generator
    sigma: frozenset[int]
    space: ConstituentSpace = field(compare=False, repr=False)
    trace: tuple[str, ...] | None = field(default=None, compare=False)

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
    trace: bool = False,
) -> NormalizationResult:
    """Compute the member set of N(gen) equivalent to ``f``."""
    report = suitable(gen, f, ds)
    if not report:
        raise UnsuitableGenerator(report)
    sp = space(gen, ds, cap)
    steps: list[str] | None = [] if trace else None
    memo: dict = {}
    mask = _sigma_mask(f, sp, ds, cap, memo, steps)
    return NormalizationResult(
        generator=gen,
        sigma=frozenset(iter_bits(mask)),
        space=sp,
        trace=tuple(steps) if steps is not None else None,
    )


def _sigma_mask(f, sp, ds, cap, memo, steps):
    key = (id(sp), id(f))
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    if isinstance(f, Prop):
        mask = sp.literal_mask(f.name)
        if steps is not None:
            steps.append(f"prop {f.name} at degree {sp.k}")
    elif isinstance(f, Not):
        mask = sp.full_mask ^ _sigma_mask(f.child, sp, ds, cap, memo, steps)
        if steps is not None:
            steps.append(f"not at degree {sp.k}")
    elif isinstance(f, And):
        mask = _sigma_mask(f.left, sp, ds, cap, memo, steps) & _sigma_mask(
            f.right, sp, ds, cap, memo, steps
        )
        if steps is not None:
            steps.append(f"and at degree {sp.k}")
    elif isinstance(f, Or):
        mask = _sigma_mask(f.left, sp, ds, cap, memo, steps) | _sigma_mask(
            f.right, sp, ds, cap, memo, steps
        )
        if steps is not None:
            steps.append(f"or at degree {sp.k}")
    elif isinstance(f, App):
        mask = _app_mask(f, sp, ds, cap, memo, steps)
        if steps is not None:
            steps.append(f"{f.conn.key} at degree {sp.k}")
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = (f, mask)
    return mask


def _app_mask(f, sp, ds, cap, memo, steps):
    gen = sp.gen
    conn = f.conn
    if sp.k < 1:
        raise EngineError(f"degree 0 space cannot host {conn.key}")
    if not ds.compatible(conn, gen.X, gen.E):
        raise EngineError(
            f"{conn.key} is not compatible with (X, E) of {gen.key}; "
            "the generator should have been rejected as unsuitable"
        )
    child_gen = Generator(gen.k - 1, gen.X, gen.Y, ds.j2_of(conn))
    child = space(child_gen, ds, cap)
    arg_masks = [_sigma_mask(a, child, ds, cap, memo, steps) for a in f.args]
    mask = 0
    for t, item in enumerate(sp.bar):
        if item.conn != conn:
            continue
        if all((arg_masks[j] >> c) & 1 for j, c in enumerate(item.children)):
            mask |= sp.bar_pos_mask(t)
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


def verify(f: Formula, result: NormalizationResult, oracle, bound: int = 3) -> Report:
    """Search for a model point separating ``f`` from its disjunction.

    Exact for exact oracles, refutation-complete only up to ``bound``
    otherwise.  A one-item ``verify_many``.
    """
    return verify_many(result.space, [(f, result.sigma)], oracle, bound)[0]


def verify_many(sp: ConstituentSpace, items, oracle, bound: int = 3) -> list[Report]:
    """``verify`` for many (formula, sigma) pairs on one space.

    Each block of models is evaluated once for the whole batch: the
    block's memo shares member masks across the items, and the
    disjunction is evaluated member by member (disjunction of truths
    equals truth of the disjunction).
    """
    checks = [_differs(f, [sp.formula(i) for i in sorted(sigma)]) for f, sigma in items]
    return oracle.check(sp.gen, bound, checks)


def _differs(f: Formula, members: list[Formula]):
    """The check that ``f`` agrees with the disjunction of ``members``:
    the points of a block where they differ, and a failing point described."""
    def fails(block) -> int:
        dm = 0
        for g in members:
            dm |= block.eval(g)
            if dm == block.full:
                break
        return block.eval(f) ^ dm

    def explain(ctx, point) -> dict:
        holds = bool(ctx.eval(f) >> point & 1)
        return {**ctx.at(point), "formula_holds": holds, "disjunction_holds": not holds}

    return fails, explain
