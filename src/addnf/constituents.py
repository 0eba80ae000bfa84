"""Enumeration of the degree-k normal-form spaces and their bar sets.

A space of degree 0 over (X, Y, A) holds one constituent per sign choice
over the filtered proposition list X-tilde.  A space of degree k+1 extends
each such sign choice with a sign choice over the *bar* list: every
application of a compatible connective to a tuple of degree-k constituents
taken from the child space at that connective's j2 border.  When no
connective of Y is compatible with (X, A), the bar degenerates to the
degree-k constituents of the same key.

Canonical order, fixed once so golden outputs are stable:

* X-tilde is sorted lexicographically; a sign word over it is read as a
  binary code, first proposition most significant, 0 meaning positive.
  Degree-0 constituents are ordered by that code (all-positive first).
* Bar items are ordered by (connective key, lexicographic child tuple).
* A degree-(k+1) constituent's index is ``alpha_code * 2**len(bar) +
  beta_code`` with the beta code read the same way over the bar list.

Spaces are memoized per domain system and immutable once built; the
member list and rendered formulas materialize lazily.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bitsets import int_text, zero_bit_pattern
from .domain_system import DomainSystem, Generator
from .errors import CapExceeded, EngineError, NotLargeEnough
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


class Constituent:
    """A single normal form: its color plus its positively signed bar set."""

    __slots__ = ("space", "index", "color", "pos_bar")

    def __init__(self, space, index, color, pos_bar):
        self.space = space
        self.index = index
        self.color = color          # frozenset of positively signed propositions
        self.pos_bar = pos_bar      # frozenset of positively signed bar positions

    @property
    def degree(self) -> int:
        return self.space.k

    def sub(self, conn: ConnectiveSig) -> frozenset[tuple[int, ...]]:
        """Positively signed argument tuples under ``conn``."""
        return frozenset(
            self.space.bar[t].children
            for t in self.pos_bar
            if self.space.bar[t].conn == conn
        )

    def sub_map(self) -> dict[str, list[tuple[int, ...]]]:
        out: dict[str, list] = {}
        for t in sorted(self.pos_bar):
            item = self.space.bar[t]
            if item.conn is not None:
                out.setdefault(item.conn.key, []).append(list(item.children))
        return out

    def base_positives(self) -> frozenset[int] | None:
        """Positively signed degree-(k-1) indices, in the degenerate branch."""
        if not self.space.degenerate:
            return None
        return frozenset(self.space.bar[t].children[0] for t in self.pos_bar)

    def to_formula(self) -> Formula:
        return self.space.formula(self.index)

    def describe(self) -> dict:
        doc = {"index": self.index, "color": sorted(self.color)}
        if self.space.k > 0:
            if self.space.degenerate:
                doc["base"] = sorted(self.base_positives())
            else:
                doc["sub"] = self.sub_map()
        return doc

    def _ident(self):
        return (self.space.gen.key, self.color, self.pos_bar)

    def __eq__(self, other):
        return isinstance(other, Constituent) and self._ident() == other._ident()

    def __hash__(self):
        return hash(self._ident())

    def __repr__(self):
        return f"Constituent({self.space.gen.key}, #{self.index})"


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
        self._members = None
        self._formulas: dict[int, Formula] = {}
        self._literals = {}
        self._signed_bar = {}
        self._masks = {}

    @property
    def degenerate(self) -> bool:
        return self.base is not None

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def member(self, i: int) -> Constituent:
        if not 0 <= i < self.size:
            raise IndexError(f"member index {i} out of range for size {self.size}")
        nx, nbar = len(self.xtilde), len(self.bar)
        acode, bcode = divmod(i, 1 << nbar) if nbar else (i, 0)
        color = frozenset(
            self.xtilde[j] for j in range(nx) if not (acode >> (nx - 1 - j)) & 1
        )
        pos = frozenset(
            t for t in range(nbar) if not (bcode >> (nbar - 1 - t)) & 1
        )
        return Constituent(self, i, color, pos)

    @property
    def members(self) -> list[Constituent]:
        if self._members is None:
            self._members = [self.member(i) for i in range(self.size)]
        return self._members

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(self.members)

    # -- rendering ------------------------------------------------------------

    def _literal(self, j: int, positive: bool) -> Formula:
        pair = self._literals.get(j)
        if pair is None:
            p = Prop(self.xtilde[j])
            pair = (p, Not(p))
            self._literals[j] = pair
        return pair[0] if positive else pair[1]

    def _bar_literal(self, t: int, positive: bool) -> Formula:
        pair = self._signed_bar.get(t)
        if pair is None:
            item = self.bar[t]
            if item.conn is None:
                base = self.base.formula(item.children[0])
            else:
                child = self.children[item.conn.key]
                base = App(item.conn, tuple(child.formula(c) for c in item.children))
            pair = (base, Not(base))
            self._signed_bar[t] = pair
        return pair[0] if positive else pair[1]

    def formula(self, i: int) -> Formula:
        """Render member i: the signed X-tilde block conjoined (at degree
        >= 1) with the signed bar block, each block in canonical order."""
        f = self._formulas.get(i)
        if f is None:
            c = self.member(i)
            head = conj_all(
                self._literal(j, self.xtilde[j] in c.color)
                for j in range(len(self.xtilde))
            )
            if self.bar:
                tail = conj_all(
                    self._bar_literal(t, t in c.pos_bar) for t in range(len(self.bar))
                )
                f = And(head, tail)
            else:
                f = head
            self._formulas[i] = f
        return f

    # -- index masks (used by the rewriter) ------------------------------------

    def literal_mask(self, prop: str) -> int:
        """Mask of members whose color contains ``prop``."""
        m = self._masks.get(("p", prop))
        if m is None:
            try:
                j = self.xtilde.index(prop)
            except ValueError:
                raise EngineError(
                    f"proposition {prop!r} is not in X-tilde {list(self.xtilde)}"
                ) from None
            m = zero_bit_pattern(self.size, len(self.bar) + len(self.xtilde) - 1 - j)
            self._masks[("p", prop)] = m
        return m

    def bar_pos_mask(self, t: int) -> int:
        """Mask of members whose bar item ``t`` is positively signed."""
        m = self._masks.get(("b", t))
        if m is None:
            m = zero_bit_pattern(self.size, len(self.bar) - 1 - t)
            self._masks[("b", t)] = m
        return m

    def describe(self) -> dict:
        return {"key": self.gen.describe(), "size": self.size}

    def __repr__(self):
        return f"ConstituentSpace({self.gen.key}, size={self.size})"


def count(gen: Generator, ds: DomainSystem) -> int:
    """Exact cardinality of the space, from the recurrence, without building it.

    The recurrence is solved bottom-up, degree 0 first, over the areas a
    degree-k space reaches at each lower degree, so its cost does not
    grow with ``k``: every space of degree 4 or more overflows
    ``_MAX_COUNT_BITS``, and CapExceeded names the first degree that does.
    """
    cache = ds.cache("counts")
    if gen.key in cache:
        return cache[gen.key]
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
    conns = gen.sorted_conns()
    below: dict[frozenset, tuple] = {}
    reached = [frozenset((gen.E,))]
    while len(reached) <= gen.k:
        for area in reached[-1]:
            if area not in below:
                compatible = [c for c in conns if ds.compatible(c, gen.X, area)]
                below[area] = tuple((ds.j2_of(c), c.rank) for c in compatible) or ((area, 1),)
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
    cache = ds.cache("spaces")
    sp = cache.get(gen.key)
    if sp is None:
        n = count(gen, ds)
        if n > cap:
            raise CapExceeded(
                f"space {gen.key} has 2**{n.bit_length() - 1} members, above the cap {cap}",
                count=n,
            )
        xtilde = tuple(sorted(ds.tilde(gen.X, gen.E)))
        compatible, bar, children, base = (), (), {}, None
        if gen.k > 0:
            compatible = tuple(
                c for c in gen.sorted_conns() if ds.compatible(c, gen.X, gen.E)
            )
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
    elif sp.size > cap:
        raise CapExceeded(
            f"space {gen.key} has 2**{sp.size.bit_length() - 1} members, above the cap {cap}",
            count=sp.size,
        )
    return sp


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    exact: bool
    contexts: int
    counterexample: dict | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "exact": self.exact,
            "contexts": self.contexts,
            "counterexample": self.counterexample,
        }


DEFAULT_PARTITION_BUDGET = 5_000_000


def partition_check(sp: ConstituentSpace, oracle, bound: int,
                    budget: int = DEFAULT_PARTITION_BUDGET) -> PartitionReport:
    """Check that the space's members partition every model point.

    At each evaluation point of each model, exactly one member must hold:
    at least one by the exhaustiveness half, at most one by pairwise
    contradiction.  Exact when the oracle is exact, otherwise a bounded
    search; the report carries the first counterexample found.
    """
    est = oracle.estimate_contexts(sp.gen, bound)
    if est * sp.size > budget:
        raise CapExceeded(
            f"partition check over {sp.size} members x {int_text(est)} models "
            f"exceeds the budget {budget}"
        )
    checked = 0
    for ctx in oracle.contexts(sp.gen, bound):
        checked += 1
        masks = [ctx.eval(sp.formula(i)) for i in range(sp.size)]
        for point in range(ctx.points):
            bit = 1 << point
            trues = [i for i, m in enumerate(masks) if m & bit]
            if len(trues) != 1:
                return PartitionReport(
                    ok=False,
                    exact=oracle.exact,
                    contexts=checked,
                    counterexample={
                        "context": ctx.describe(),
                        "point": ctx.point_desc(point),
                        "members_true": trues,
                    },
                )
    return PartitionReport(ok=True, exact=oracle.exact, contexts=checked)
