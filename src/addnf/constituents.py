"""Enumeration of the degree-k normal-form spaces and their bar sets.

A space of degree 0 over (X, Y, A) holds one constituent per sign choice
over the filtered proposition list X-tilde.  A space of degree k+1 extends
each such sign choice with a sign choice over the *bar* list: every
application of a compatible connective to a tuple of degree-k constituents
taken from the child space at that connective's j2 border.  When no
connective of Y is compatible with (X, A), the bar degenerates to the
degree-k constituents of the same key.

Canonical order, fixed once so golden outputs are stable:

* X-tilde is sorted lexicographically.
* Bar items are ordered by (connective key, lexicographic child tuple).
* A constituent's index, read in binary, *is* its sign word over the
  space's ``literals()``: the X-tilde propositions, then (at degree >= 1)
  the bar items, the first literal the most significant bit and 0 meaning
  positive.  Member 0 is the all-positive one.  So a set of members is a
  Boolean function of the literals, and the rewriter evaluates a
  disjunction of members by splitting the index bits, not member by member.

Spaces are memoized per domain system and immutable once built; a member
is only its index, and its rendered formula materializes lazily.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bitsets import zero_bit_pattern
from .domain_system import DomainSystem, Generator
from .errors import CapExceeded, EngineError, NotLargeEnough
from .logics.base import Report
from .syntax import And, App, ConnectiveSig, Formula, Not, Prop, conj_all

DEFAULT_CAP = 2 ** 20

# count() refuses to build integers wider than this many bits; the exact
# cardinality of such a space would not fit in memory anyway.
_MAX_COUNT_BITS = 2 ** 26


@dataclass(frozen=True)
class BarItem:
    """One bar member: conn applied to child indices, or (degenerate) a
    bare reference to a same-key constituent one degree down."""

    conn: ConnectiveSig | None
    children: tuple[int, ...]


def _out_of_range(i: int, size: int) -> IndexError:
    return IndexError(f"member index {i} out of range for size {size}")


class ConstituentSpace:
    """All degree-k constituents for one (k, X, Y, A) key, in canonical order."""

    def __init__(self, gen: Generator, ds: DomainSystem, xtilde, compatible, bar,
                 children, base):
        self.gen = gen
        self.ds = ds
        self.k = gen.k
        self.xtilde = xtilde                  # sorted tuple of propositions
        self.compatible = compatible          # sorted tuple of compatible conns
        self.bar = bar                        # tuple of BarItem
        self.children = children              # conn key -> child ConstituentSpace
        self.base = base                      # degenerate-branch child space
        self.size = (1 << len(xtilde)) << len(bar)
        self._formulas: dict[int, Formula] = {}
        self._signs = None                    # (literals, their negations)
        self._sign_masks: dict[int, int] = {}

    @property
    def degenerate(self) -> bool:
        return self.base is not None

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def describe_member(self, i: int) -> dict:
        """Member i's ``enumerate`` document, read off its index bits: its
        positive X-tilde propositions and, at degree >= 1, its positive bar
        items, as argument tuples per connective (``sub``) or base indices."""
        nx, positive = len(self.xtilde), self._positive(i)
        doc = {"index": i, "color": [x for x, s in zip(self.xtilde, positive) if s]}
        if self.k > 0:
            items = [item for item, s in zip(self.bar, positive[nx:]) if s]
            if self.degenerate:
                doc["base"] = [item.children[0] for item in items]
            else:
                sub: dict[str, list] = {}
                for item in items:
                    sub.setdefault(item.conn.key, []).append(list(item.children))
                doc["sub"] = sub
        return doc

    def _positive(self, i: int) -> list[bool]:
        """Member i's sign word: whether each literal is signed positively."""
        if not 0 <= i < self.size:
            raise _out_of_range(i, self.size)
        return [not i >> j & 1 for j in reversed(range(len(self.xtilde) + len(self.bar)))]

    # -- rendering ------------------------------------------------------------

    def literals(self) -> tuple[Formula, ...]:
        """The formulas whose signs spell a member's index, most significant
        first: ``Prop(x)`` for each X-tilde entry, then each bar item (an
        application to child members, or a bare base member)."""
        if self._signs is None:
            bar = []
            for item in self.bar:
                if item.conn is None:
                    bar.append(self.base.formula(item.children[0]))
                else:
                    child = self.children[item.conn.key]
                    bar.append(App(item.conn, tuple(child.formula(c) for c in item.children)))
            literals = tuple([Prop(x) for x in self.xtilde] + bar)
            self._signs = (literals, tuple(Not(g) for g in literals))
        return self._signs[0]

    def formula(self, i: int) -> Formula:
        """Render member i: the signed X-tilde block conjoined (at degree
        >= 1) with the signed bar block, each block in canonical order."""
        f = self._formulas.get(i)
        if f is None:
            positive = self._positive(i)
            literals, negated = self.literals(), self._signs[1]
            signed = [g if s else ng for g, ng, s in zip(literals, negated, positive)]
            nx = len(self.xtilde)
            f = conj_all(signed[:nx])
            if self.bar:
                f = And(f, conj_all(signed[nx:]))
            self._formulas[i] = f
        return f

    # -- index masks (used by the rewriter) ------------------------------------

    def index_mask(self, indices) -> int:
        """The mask of a set of member indices, read once; an index out of
        range raises the IndexError of ``describe_member`` for the least
        such index."""
        size = self.size
        digits = bytearray(b"0") * size  # bit i is digit i from the right
        outside = []
        for i in indices:
            if 0 <= i < size:
                digits[size - 1 - i] = 49  # "1"
            else:
                outside.append(i)
        if outside:
            raise _out_of_range(min(outside), size)
        return int(digits, 2)

    def sign_mask(self, j: int) -> int:
        """Mask of the members whose literal ``j``, in ``literals()`` order,
        is signed positively: those whose index has bit ``n - 1 - j`` clear."""
        m = self._sign_masks.get(j)
        if m is None:
            n = len(self.xtilde) + len(self.bar)
            m = self._sign_masks[j] = zero_bit_pattern(self.size, n - 1 - j)
        return m

    def describe(self) -> dict:
        return {"key": self.gen.describe(), "size": self.size}

    def __repr__(self):
        return f"ConstituentSpace({self.gen.key}, size={self.size})"


def _compatible(gen: Generator, ds: DomainSystem, area) -> tuple[ConnectiveSig, ...]:
    """The connectives of ``gen`` compatible with (X, area), in key order:
    the bar sources at ``area``, or (if none) ``area`` one degree down."""
    return tuple(c for c in gen.sorted_conns if ds.compatible(c, gen.X, area))


def count(gen: Generator, ds: DomainSystem) -> int:
    """Exact cardinality of the space, from the recurrence, without building it.

    The recurrence is solved bottom-up, degree 0 first, over the areas a
    degree-k space reaches at each lower degree, so its cost does not
    grow with ``k``: every space of degree 4 or more overflows
    ``_MAX_COUNT_BITS``, and CapExceeded names the first degree that does.
    """
    cache = ds.cache("counts")
    n = cache.get(gen.key)
    if n is not None:
        return n
    if not ds.large_enough(gen.X, gen.E):
        raise NotLargeEnough(
            f"E={sorted(gen.E)} is not large enough for X={sorted(gen.X)}"
        )
    # below[A]: the bar sources of area A one degree down, as (area, rank)
    # pairs; the degenerate branch counts A itself once.  reached[i]: the
    # areas reached i degrees below the top.  A connective compatible at A
    # is compatible at its own j2 (compatibility implies largeness there),
    # so every source is its own source again: after the first step the
    # sets only grow, and they reach a fixed point however large k is.
    below: dict[frozenset, tuple] = {}
    reached = [frozenset((gen.E,))]
    while len(reached) <= gen.k:
        for area in reached[-1]:
            if area not in below:
                below[area] = tuple(
                    (ds.j2_of(c), c.rank) for c in _compatible(gen, ds, area)
                ) or ((area, 1),)
        nxt = frozenset(a for area in reached[-1] for a, _ in below[area])
        if nxt == reached[-1]:
            break
        reached.append(nxt)
    # Work in log2: a count is 2**e, and a bar term count**r is 2**(e*r).
    logs: dict[frozenset, int] = {}
    for d in range(gen.k + 1):
        down, logs = logs, {}
        for area in sorted(reached[min(gen.k - d, len(reached) - 1)], key=sorted):
            key = Generator(d, gen.X, gen.Y, area).key
            n = cache.get(key)
            if n is None:
                e = len(ds.tilde(gen.X, area))
                if d:
                    terms = [down[a] * r for a, r in below[area]]
                    # 2**t alone exceeds the cap once t has as many bits as it.
                    if max(terms) >= _MAX_COUNT_BITS.bit_length():
                        e = _MAX_COUNT_BITS + 1
                    else:
                        e += sum(1 << t for t in terms)
                if e > _MAX_COUNT_BITS:
                    raise CapExceeded(
                        f"space {key} would have more than 2**{_MAX_COUNT_BITS} members; "
                        "the exact count does not fit in memory"
                    )
                n = cache[key] = 1 << e
            logs[area] = n.bit_length() - 1
    return cache[gen.key]


def space(gen: Generator, ds: DomainSystem, cap: int = DEFAULT_CAP) -> ConstituentSpace:
    """Materialize (memoized) the constituent space for ``gen``.

    Raises NotLargeEnough when E cannot support X, and CapExceeded (with
    the exact offending cardinality) when the space would outgrow ``cap``.
    """
    n = count(gen, ds)
    if n > cap:
        raise CapExceeded(
            f"space {gen.key} has 2**{n.bit_length() - 1} members, above the cap {cap}",
            count=n,
        )
    cache = ds.cache("spaces")
    sp = cache.get(gen.key)
    if sp is not None:
        return sp
    xtilde = tuple(sorted(ds.tilde(gen.X, gen.E)))
    compatible, bar, children, base = (), (), {}, None
    if gen.k > 0:
        compatible = _compatible(gen, ds, gen.E)
        down = gen.k - 1
        if compatible:
            items = []
            for conn in compatible:
                child = space(Generator(down, gen.X, gen.Y, ds.j2_of(conn)), ds, cap)
                children[conn.key] = child
                items.extend(
                    BarItem(conn, tup)
                    for tup in itertools.product(range(child.size), repeat=conn.rank)
                )
            bar = tuple(items)
        else:
            base = space(Generator(down, gen.X, gen.Y, gen.E), ds, cap)
            bar = tuple(BarItem(None, (i,)) for i in range(base.size))
        if not bar:
            raise EngineError(f"empty bar set for {gen.key}; inconsistent system")
    sp = ConstituentSpace(gen, ds, xtilde, compatible, bar, children, base)
    if sp.size != n:
        raise EngineError(f"space {gen.key}: size {sp.size} disagrees with count {n}")
    # Re-assert the domain condition on one representative bar member:
    # it holds by construction unless the instance supplied broken j-maps.
    if bar and bar[0].conn is not None:
        first = bar[0]
        child = children[first.conn.key]
        args = tuple(child.formula(c) for c in first.children)
        if not ds.in_domain(first.conn, args):
            raise EngineError(
                f"bar members of {gen.key} fall outside D({first.conn.key})"
            )
    cache[gen.key] = sp
    return sp


DEFAULT_PARTITION_BUDGET = 5_000_000


def partition_check(sp: ConstituentSpace, oracle, bound: int,
                    budget: int = DEFAULT_PARTITION_BUDGET) -> Report:
    """Check that the space's members partition every model point.

    At each evaluation point of each model, exactly one member must hold:
    at least one by the exhaustiveness half, at most one by pairwise
    contradiction.  Exact when the oracle is exact for the space's
    generator (one-point frames when it has no connective), otherwise a
    bounded search; the report's countermodel is the first failing model and
    point, with the members true there.  It evaluates the rendered members
    one by one, unlike verify: the index-bit reading of a disjunction
    assumes exactly what this checks.
    """
    limit = budget // sp.size
    if oracle.estimate_contexts(sp.gen, bound, limit) > limit:
        raise CapExceeded(
            f"partition check over {sp.size} members x more than {limit} models "
            f"exceeds the budget {budget}"
        )
    members = [sp.formula(i) for i in range(sp.size)]

    def gaps_and_overlaps(block) -> int:
        seen = twice = 0
        for g in members:
            m = block.eval(g)
            twice |= seen & m
            seen |= m
        return twice | (block.full ^ seen)

    def explain(ctx, point) -> dict:
        trues = [i for i, g in enumerate(members) if ctx.eval(g) >> point & 1]
        return {**ctx.at(point), "members_true": trues}

    return oracle.check(sp.gen, bound, [(gaps_and_overlaps, explain)])[0]
