"""Shared oracle machinery for the shipped logic instances.

An oracle enumerates models; each evaluates formulas to a bitmask over
its evaluation points (frame points, variable assignments).  Validity
means full mask in every model.  Searches are exhaustive up to a size
bound and guarded by a case budget, except where the oracle is exact for
the generator: then size 1 alone decides (``Oracle.sizes``).

Checks run over *blocks*: consecutive models, in the order ``contexts``
enumerates them, evaluated together as one context.  Model ``i`` of a
block owns the mask bits ``i*points`` to ``i*points + points - 1``, with
point ``w`` at bit ``i*points + w``, so one mask operation serves every
model of the block and the lowest set bit of a failure mask is the first
failing model and point.

The models of one size are numbered by an *ordinal*, the order of
``contexts``, whose bits are the model read in binary: each oracle states
only where its valuation bits and relation codes sit.  Bit j of a
relation code of arity a is tuple j of
``itertools.product(range(size), repeat=a)``.  A block is an aligned run
of ordinals whose masks take at most ``BLOCK_BITS`` bits, and "bit b of
the ordinal", spread over the point slots, is periodic inside a block for
the block's low bits and constant above them (``_BlockLayout``, built by
doubling).  A single model is a one-model block.
"""
from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field

from ..bitsets import iter_bits, zero_bit_pattern
from ..domain_system import DomainSystem, Generator
from ..errors import BudgetExceeded, EngineError
from ..syntax import And, App, Formula, LogicDef, Not, Or, Prop, shape

DEFAULT_BOUND = 3
DEFAULT_BUDGET = 2_000_000

# Mask bits (models x points) per block at most.  A block holds a power of
# two of models, as does every size, so the blocks of one size are aligned
# runs of equal length.
BLOCK_BITS = 1 << 16


@dataclass(frozen=True)
class Report:
    """An oracle's verdict on one check; only ``Oracle.check`` builds one.

    ``contexts`` counts the models checked: all of them when ``ok``, else
    those up to and including the first failing one, which
    ``countermodel`` describes.  ``bound`` is the model-size bound, None
    for an exact check, which searches size 1 alone whatever the bound.
    """

    ok: bool
    exact: bool
    contexts: int
    bound: int | None
    countermodel: dict | None = None

    def to_json(self) -> dict:
        return asdict(self)


class Context:
    """A model, a block of models or a constituent space: evaluates formulas
    to masks over its ``points``, memoized.

    ``eval`` is the one formula walk; a subclass supplies only the leaf
    (``prop_mask``) and the connective (``app_mask``) masks.
    """

    points: int
    full: int

    def __init__(self):
        self._memo: dict[int, tuple] = {}

    def eval(self, f: Formula) -> int:
        """The mask of ``f`` over the context's points, memoized.  An entry
        holds its formula alive, so no other live node shares its id."""
        hit = self._memo.get(id(f))
        if hit is not None:
            return hit[1]
        t = type(f)
        if t is Not:
            m = self.full ^ self.eval(f.child)
        elif t is And:
            m = self.eval(f.left) & self.eval(f.right)
        elif t is Or:
            m = self.eval(f.left) | self.eval(f.right)
        elif t is Prop:
            m = self.prop_mask(f.name)
        elif t is App:
            m = self.app_mask(f.conn, f.args)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self._memo[id(f)] = (f, m)
        return m

    def prop_mask(self, name: str) -> int:
        raise NotImplementedError

    def app_mask(self, conn, args) -> int:
        """The mask of ``conn`` applied to the argument formulas ``args``."""
        raise NotImplementedError


class Oracle:
    """A search over models of growing size, run as packed blocks.

    Subclasses state ``where`` their ordinal bits sit for one size, how
    many there are (``model_bits``), and the ``block_type`` that evaluates
    a block (a ``PackedBlock`` built from a layout and its first ordinal).
    """

    block_type: type

    def __init__(self, budget: int = DEFAULT_BUDGET):
        self.budget = budget
        self._layouts: dict[tuple, _BlockLayout] = {}

    def exact(self, gen: Generator) -> bool:
        """Do the models of size 1 decide every check over ``gen``?"""
        return False

    def sizes(self, gen: Generator, bound: int) -> range:
        """The model sizes a check searches: size 1 alone when exact."""
        return range(1, 2) if self.exact(gen) else range(1, bound + 1)

    def where(self, gen: Generator, size: int) -> Where:
        raise NotImplementedError

    def model_bits(self, gen: Generator, size: int) -> int:
        """log2 of the number of models of one size."""
        raise NotImplementedError

    def blocks(self, gen: Generator, bound: int, models: int | None = None):
        """The models searched at ``bound`` as blocks of at most ``models``
        models (as many as ``BLOCK_BITS`` allows by default), in
        enumeration order."""
        self.guard(gen, bound)
        for size in self.sizes(gen, bound):
            key = (size, gen.X, gen.Y, gen.E, models)
            layout = self._layouts.get(key)
            if layout is None:
                where = self.where(gen, size)
                layout = _BlockLayout(where, self.model_bits(gen, size),
                                      models or max(1, BLOCK_BITS // where.points))
                self._layouts[key] = layout
            for start in range(0, layout.count, layout.models):
                yield self.block_type(layout, start)

    def contexts(self, gen: Generator, bound: int):
        """Each model searched at ``bound`` as a one-model block."""
        return self.blocks(gen, bound, 1)

    def estimate_contexts(self, gen: Generator, bound: int, limit: int) -> int:
        """The number of models searched at ``bound``, or ``limit + 1`` once
        it passes ``limit``.  Each size's count is a power of two and is
        compared by its exponent before it is built."""
        total = 0
        for size in self.sizes(gen, bound):
            bits = self.model_bits(gen, size)
            if bits >= limit.bit_length():
                return limit + 1
            total += 1 << bits
            if total > limit:
                return limit + 1
        return total

    def guard(self, gen: Generator, bound: int) -> None:
        if not self.sizes(gen, bound):
            raise EngineError(f"the model-size bound must be at least 1, got {bound}")
        if self.estimate_contexts(gen, bound, self.budget) > self.budget:
            raise BudgetExceeded(
                f"more than {self.budget} models at bound {bound} exceed the budget "
                f"{self.budget}"
            )

    def check(self, gen: Generator, bound: int, checks) -> list[Report]:
        """Run every check over every model searched at ``bound``.

        A check is a pair ``(fails, explain)``: ``fails`` maps a block to
        the mask of its failing bits and is not run again once it has
        failed; ``explain(block, i, point)`` describes the first failing
        point, of model ``i`` of the failing block, as the report's
        countermodel.  ``fails`` has just evaluated the block, so an
        explain reads the block's memoized masks at bit
        ``i * block.points + point``.
        """
        reports: list[Report | None] = [None] * len(checks)
        left = len(checks)
        done = 0
        exact = self.exact(gen)
        shown = None if exact else bound
        for block in self.blocks(gen, bound):
            for j, (fails, explain) in enumerate(checks):
                if reports[j] is not None:
                    continue
                bad = fails(block)
                if bad:
                    i, point = divmod((bad & -bad).bit_length() - 1, block.points)
                    reports[j] = Report(False, exact, done + i + 1, shown,
                                        explain(block, i, point))
                    left -= 1
            done += block.models
            if not left:
                break
        ok = Report(True, exact, done, shown)
        return [ok if r is None else r for r in reports]

    def vocab_for(self, f: Formula) -> Generator:
        _, props, conns = shape(f)
        return Generator(0, props, conns, self.assignment_vars(f))

    def assignment_vars(self, f: Formula) -> frozenset[str]:
        """The points a model must assign for ``f`` to have a value."""
        return frozenset()

    def admit(self, gen: Generator, formulas) -> None:
        """Refuse a formula whose assignment variables lie outside ``gen.E``."""
        for f in formulas:
            extra = self.assignment_vars(f) - gen.E
            if extra:
                raise EngineError(
                    f"variables {sorted(extra)} are free in the formula but not covered "
                    f"by the assignment variables {sorted(gen.E)}"
                )

    def check_valid(self, f: Formula, bound: int = DEFAULT_BOUND,
                    gen: Generator | None = None) -> Report:
        """Is ``f`` true at every point of every model searched at ``bound``?"""
        if gen is None:
            gen = self.vocab_for(f)
        self.admit(gen, [f])
        return self.check(gen, bound, [(lambda b: b.full ^ b.eval(f), PackedBlock.at)])[0]


@dataclass
class Instance:
    """A logic instance: its syntax and domain system, and its oracle.

    Instances that need more of their logic's vocabulary subclass it.
    """

    logic: LogicDef = field(repr=False)
    oracle: Oracle = field(repr=False)

    @property
    def domain(self) -> DomainSystem:
        return self.logic.domain


@dataclass
class Where:
    """Where an oracle's ordinal bits sit for its models of one size.

    ``props[name]`` is the ordinal bit of the name's value at element 0
    (element w at that bit + w); ``relations[key]`` is (lowest ordinal bit
    of the relation's code, arity).  Both are in sorted key order.
    ``spread`` says where a proposition holds, for ``PackedBlock.prop_mask``.
    """

    size: int
    points: int
    props: dict[str, int]
    relations: dict[str, tuple[int, int]]

    def spread(self, name: str) -> list[tuple[int | None, int]]:
        """(ordinal bit, points) pairs: the proposition holds at those points
        of one model when that bit of its ordinal is set (always, for None).
        Here point w of ``name`` is the bit ``props[name] + w``."""
        try:
            off = self.props[name]
        except KeyError:
            raise EngineError(f"proposition {name!r} has no valuation in this model") from None
        return [(off + w, 1 << w) for w in range(self.points)]

    def tuples(self, ordinal: int) -> dict[str, list[list[int]]]:
        """Each relation of model ``ordinal`` as its tuples, in code order."""
        out = {}
        for key, (off, arity) in self.relations.items():
            code = ordinal >> off
            out[key] = [
                list(t)
                for j, t in enumerate(itertools.product(range(self.size), repeat=arity))
                if code >> j & 1
            ]
        return out

    def values(self, ordinal: int) -> dict[str, list[int]]:
        """Each proposition's value in model ``ordinal`` as its elements."""
        ones = (1 << self.size) - 1
        return {p: list(iter_bits(ordinal >> off & ones)) for p, off in self.props.items()}


def stacked(base: int, widths) -> list[int]:
    """Lowest bits of consecutive fields of the given widths laid out from
    bit ``base`` up, the last field lowest (``itertools.product`` order)."""
    offsets = []
    for width in reversed(widths):
        offsets.append(base)
        base += width
    return offsets[::-1]


class _BlockLayout:
    """What every block of the models of one size shares; a block holds the
    most models a power of two allows, up to ``models``."""

    def __init__(self, where: Where, bits: int, models: int):
        self.where = where
        self.points = n = where.points
        self.bits = bits
        self.low = min(bits, models.bit_length() - 1)  # ordinal bits inside a block
        self.models = 1 << self.low
        self.count = 1 << bits
        self.full = (1 << (self.models * n)) - 1
        self.every = self.full // ((1 << n) - 1)  # point 0 of every model
        # periodic[b]: point 0 of the models whose ordinal has bit b set
        self.periodic = [
            zero_bit_pattern(self.models, b, n) << (n << b) for b in range(self.low)
        ]

    def bit(self, b: int, start: int) -> int:
        """Point 0 of the models of the block at ``start`` whose ordinal has bit b set."""
        if b < self.low:
            return self.periodic[b]
        return self.every if start >> b & 1 else 0


class PackedBlock(Context):
    """The models of ordinals ``start .. start + models - 1`` of a layout.

    A proposition's mask is read off ``where.spread`` (``prop_mask``, the
    one reader for every oracle); subclasses supply the connective mask
    (``app_mask``) and describe model ``i`` of the block (``describe``)
    and one of its points (``point_desc``) for countermodels.
    """

    def __init__(self, layout: _BlockLayout, start: int):
        super().__init__()
        self.layout = layout
        self.start = start
        self.models = layout.models
        self.points = layout.points
        self.full = layout.full
        self._props: dict[str, int] = {}

    def prop_mask(self, name: str) -> int:
        """The mask of the proposition ``name``, cached per name."""
        m = self._props.get(name)
        if m is None:
            layout, m = self.layout, 0
            for b, points in layout.where.spread(name):
                m |= (layout.every if b is None else layout.bit(b, self.start)) * points
            self._props[name] = m
        return m

    def describe(self, i: int) -> dict:
        raise NotImplementedError

    def at(self, i: int, point: int) -> dict:
        """Model ``i`` of this block and one of its points, as a countermodel."""
        return {"context": self.describe(i), "point": self.point_desc(point)}


class RelationalBlock(PackedBlock):
    """A block of relational models (frames).

    A proposition holds at point w where its ordinal bit
    ``props[name] + w`` is set (``Where.spread``).  An operator of rank h
    is the existential image of its (h+1)-ary relation: point w gets
    ``edge & (a1 >> u1) & ... & (ah >> uh)`` over the tuples
    (w, u1, ..., uh), so a unary one is a Kripke diamond.
    """

    def __init__(self, layout: _BlockLayout, start: int):
        super().__init__(layout, start)
        n = self.points
        # edges[key][w]: (u1, ((1, u2), ..., (h-1, uh)), models with the tuple
        # (w, u1, ..., uh)), empty masks left out
        self.edges = {}
        for key, (off, arity) in layout.where.relations.items():
            rows = [[] for _ in range(n)]
            for j, (w, u, *rest) in enumerate(itertools.product(range(n), repeat=arity)):
                m = layout.bit(off + j, start)
                if m:
                    rows[w].append((u, tuple(enumerate(rest, 1)), m))
            self.edges[key] = rows

    def app_mask(self, conn, args) -> int:
        try:
            rows = self.edges[conn.key]
        except KeyError:
            raise EngineError(f"connective {conn.key!r} has no relation in this model") from None
        arg_masks = list(map(self.eval, args))
        m = arg_masks[0]
        first = [m >> u for u in range(self.points)]
        out = 0
        for w, row in enumerate(rows):
            acc = 0
            for u, rest, edge in row:
                edge &= first[u]
                for k, v in rest:
                    edge &= arg_masks[k] >> v
                acc |= edge
            out |= acc << w
        return out

    def describe(self, i: int) -> dict:
        where = self.layout.where
        return {
            "kind": "frame",
            "size": self.points,
            "relations": where.tuples(self.start + i),
            "valuation": where.values(self.start + i),
        }

    def point_desc(self, point: int) -> dict:
        return {"point": point}


class RelationalOracle(Oracle):
    """Search over the frames of at most ``bound`` points.

    With no connective in the generator it is exact: the one-point frames
    are the rows of the truth table, so the propositional instance uses it
    too.  A rank-h connective is read as the existential image of an (h+1)-ary
    relation (Jonsson-Tarski), so one search serves modal K (a diamond is
    rank 1) and the complex algebras of BAO; a countermodel refutes soundly.
    Read in binary from the low bit up, the ordinal of a frame of n points
    holds each proposition's n-bit value (bit w: it holds at point w), then
    each connective's relation code (bit j: tuple j of
    ``product(range(n), repeat=rank + 1)``), the last sorted one lowest.
    """

    block_type = RelationalBlock

    def exact(self, gen: Generator) -> bool:
        # With no connective a formula reads only the valuation at its own
        # point, and the one-point frames carry every valuation.
        return not gen.Y

    def where(self, gen: Generator, size: int) -> Where:
        props = sorted(gen.X)
        conns = gen.sorted_conns
        values = stacked(0, [size] * len(props))
        codes = stacked(size * len(props), [size ** (c.rank + 1) for c in conns])
        return Where(
            size, size,
            dict(zip(props, values)),
            {c.key: (off, c.rank + 1) for c, off in zip(conns, codes)},
        )

    def model_bits(self, gen: Generator, size: int) -> int:
        return size * len(gen.X) + sum(size ** (c.rank + 1) for c in gen.Y)

    def check_equal(self, lhs: Formula, rhs: Formula, bound: int = DEFAULT_BOUND,
                    gen: Generator | None = None) -> Report:
        """Do both formulas hold at the same points of every frame up to the bound?"""
        if gen is None:
            gen = self.vocab_for(Or(lhs, rhs))

        def explain(block, i, point) -> dict:
            n = block.points
            ones = (1 << n) - 1
            return {
                "context": block.describe(i),
                "lhs_value": list(iter_bits(block.eval(lhs) >> (i * n) & ones)),
                "rhs_value": list(iter_bits(block.eval(rhs) >> (i * n) & ones)),
            }

        return self.check(gen, bound, [(lambda b: b.eval(lhs) ^ b.eval(rhs), explain)])[0]


def one_point_domain(sigs=()) -> DomainSystem:
    """The domain system over V = {*}: every j1 empty, every j2 and the
    default iota V, so every connective is a full operator."""
    v = frozenset("*")
    return DomainSystem(
        points=v,
        iota_atomic={},
        j1={s.key: frozenset() for s in sigs},
        j2={s.key: v for s in sigs},
        iota_default=v,
    )
