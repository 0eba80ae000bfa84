"""The modal K instance: unary diamonds as full operators.

Verification is an exhaustive search over Kripke models with at most
``bound`` worlds (every accessibility relation per diamond, every
valuation of the relevant propositions, every evaluation world), with the
diamond read existentially.  Refutation-complete only up to the bound;
a tableau decision procedure would be a separate extension.

Models of n worlds are numbered by an *ordinal*, the order in which
``KripkeOracle.contexts`` enumerates them.  Read in binary, from the low
bit up, the ordinal holds the valuation (bit ``j*n + w``: proposition j
of the sorted X holds at world w), then one n*n-bit relation code per
diamond, the last diamond of the sorted Y lowest (bit ``w*n + u`` of a
code: an edge w -> u).  ``KripkeOracle.blocks`` packs an aligned run of
at most ``BLOCK_MODELS`` ordinals into one int per formula, world w of
model ``ordinal - start`` at bit ``(ordinal - start)*n + w``.  A
proposition or edge is then "bit b of the ordinal" spread over the
world slots: periodic inside a block for the block's low bits, constant
above them.  Those periodic masks are built by doubling and cached on the
oracle per (n, X, Y); a diamond costs n*n shift/AND/OR steps.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..bitsets import zero_bit_pattern
from ..domain_system import DomainSystem, Generator
from ..errors import EngineError
from ..syntax import ConnectiveSig, Formula, LogicDef
from .base import (
    DEFAULT_BUDGET,
    Context,
    Oracle,
    OracleReport,
    mask_to_list,
    masks_to_pairs,
    split_relation_code,
)

POINT = "*"

# Models per block at most; every model count is a power of two, so the
# blocks of one size are aligned runs of equal length.
BLOCK_MODELS = 1 << 12


class _KripkeContext(Context):
    def __init__(self, worlds: int, relations: dict[str, tuple[int, ...]],
                 valuation: dict[str, int]):
        super().__init__()
        self.points = worlds
        self.full = (1 << worlds) - 1
        self.relations = relations
        self.valuation = valuation

    def prop_mask(self, name: str) -> int:
        try:
            return self.valuation[name]
        except KeyError:
            raise EngineError(f"proposition {name!r} has no valuation in this model")

    def app_mask(self, conn, arg_masks) -> int:
        rel = self.relations[conn.key]
        m = arg_masks[0]
        out = 0
        for w, succ in enumerate(rel):
            if succ & m:
                out |= 1 << w
        return out

    def describe(self) -> dict:
        return {
            "kind": "kripke",
            "worlds": self.points,
            "relations": {k: masks_to_pairs(r) for k, r in sorted(self.relations.items())},
            "valuation": {p: mask_to_list(v) for p, v in sorted(self.valuation.items())},
        }

    def point_desc(self, point: int) -> dict:
        return {"world": point}


class _BlockLayout:
    """What every block of the n-world models over (props, conns) shares."""

    def __init__(self, n: int, props: tuple[str, ...], conns: tuple, bits: int):
        self.n = n
        self.props = props
        self.conns = conns
        self.low = min(bits, BLOCK_MODELS.bit_length() - 1)  # ordinal bits inside a block
        self.models = 1 << self.low
        self.count = 1 << bits
        self.full = (1 << (self.models * n)) - 1
        self.every = self.full // ((1 << n) - 1)  # world 0 of every model
        # periodic[b]: world 0 of the models whose ordinal has bit b set
        self.periodic = [
            zero_bit_pattern(self.models, b, n) << (n << b) for b in range(self.low)
        ]

    def bit(self, b: int, start: int) -> int:
        """World 0 of the models of the block at ``start`` whose ordinal has bit b set."""
        if b < self.low:
            return self.periodic[b]
        return self.every if start >> b & 1 else 0

    def relation_offset(self, j: int) -> int:
        """Lowest ordinal bit of the relation code of conns[j]."""
        n = self.n
        return n * len(self.props) + (len(self.conns) - 1 - j) * n * n


class _KripkeBlock(Context):
    """The models of ordinals ``start .. start + models - 1``, packed."""

    def __init__(self, layout: _BlockLayout, start: int):
        super().__init__()
        self.layout = layout
        self.start = start
        self.models = layout.models
        self.points = n = layout.n
        self.full = layout.full
        # edges[key][w]: (u, models with the edge w -> u), empty masks left out
        self.edges = {}
        for j, c in enumerate(layout.conns):
            off = layout.relation_offset(j)
            rows = []
            for w in range(n):
                row = []
                for u in range(n):
                    m = layout.bit(off + w * n + u, start)
                    if m:
                        row.append((u, m))
                rows.append(row)
            self.edges[c.key] = rows

    def prop_mask(self, name: str) -> int:
        layout = self.layout
        try:
            j = layout.props.index(name)
        except ValueError:
            raise EngineError(f"proposition {name!r} has no valuation in this model") from None
        n = self.points
        out = 0
        for w in range(n):
            out |= layout.bit(j * n + w, self.start) << w
        return out

    def app_mask(self, conn, arg_masks) -> int:
        m = arg_masks[0]
        out = 0
        for w, row in enumerate(self.edges[conn.key]):
            acc = 0
            for u, edge in row:
                acc |= (m >> u) & edge
            out |= acc << w
        return out

    def model(self, i: int) -> _KripkeContext:
        layout = self.layout
        n, ordinal = layout.n, self.start + i
        ones = (1 << n) - 1
        relations = {
            c.key: split_relation_code(
                (ordinal >> layout.relation_offset(j)) & ((1 << (n * n)) - 1), n
            )
            for j, c in enumerate(layout.conns)
        }
        valuation = {p: (ordinal >> (j * n)) & ones for j, p in enumerate(layout.props)}
        return _KripkeContext(n, relations, valuation)


def _unary_only(conns) -> None:
    for c in conns:
        if c.rank != 1:
            raise EngineError(f"Kripke search supports unary diamonds only, not {c.key}")


class KripkeOracle(Oracle):
    """Bounded Kripke-model search; sound refuter, complete only up to bound."""

    exact = False

    def __init__(self, budget: int = DEFAULT_BUDGET):
        super().__init__(budget)
        self._layouts: dict[tuple, _BlockLayout] = {}

    def contexts(self, gen: Generator, bound: int):
        self.guard(gen, bound)
        props = sorted(gen.X)
        conns = gen.sorted_conns()
        _unary_only(conns)
        for n in range(1, bound + 1):
            ones = (1 << n) - 1
            rel_codes = range(1 << (n * n))
            val_codes = range(1 << (n * len(props)))
            for combo in itertools.product(rel_codes, repeat=len(conns)):
                relations = {
                    c.key: split_relation_code(code, n) for c, code in zip(conns, combo)
                }
                for v in val_codes:
                    valuation = {p: (v >> (j * n)) & ones for j, p in enumerate(props)}
                    yield _KripkeContext(n, relations, valuation)

    def blocks(self, gen: Generator, bound: int):
        self.guard(gen, bound)
        props = tuple(sorted(gen.X))
        conns = tuple(gen.sorted_conns())
        _unary_only(conns)
        for n in range(1, bound + 1):
            key = (n, props, tuple(c.key for c in conns))
            layout = self._layouts.get(key)
            if layout is None:
                layout = _BlockLayout(n, props, conns, self.model_bits(gen, n))
                self._layouts[key] = layout
            for start in range(0, layout.count, layout.models):
                yield _KripkeBlock(layout, start)

    def model_bits(self, gen: Generator, size: int) -> int:
        return size * len(gen.X) + size * size * len(gen.Y)


@dataclass
class ModalKInstance:
    logic: LogicDef
    oracle: KripkeOracle
    diamonds: tuple[ConnectiveSig, ...]

    @property
    def domain(self) -> DomainSystem:
        return self.logic.domain


def modal_k_instance(diamonds=("dia",), propositions=None) -> ModalKInstance:
    """Build the instance with one unary diamond per given name."""
    v = frozenset((POINT,))
    sigs = tuple(ConnectiveSig(name, 1) for name in diamonds)
    ds = DomainSystem(
        points=v,
        iota_atomic={},
        j1={s.key: frozenset() for s in sigs},
        j2={s.key: v for s in sigs},
        iota_default=v,
    )
    oracle = KripkeOracle()
    logic = LogicDef(
        name="modal-k",
        domain=ds,
        oracle=oracle,
        connectives={s.name: s for s in sigs},
        propositions=frozenset(propositions) if propositions is not None else None,
    )
    return ModalKInstance(logic=logic, oracle=oracle, diamonds=sigs)


def kripke_oracle(f: Formula, bound: int = 3) -> OracleReport:
    """Bounded-model verdict for ``f`` over its own vocabulary."""
    return KripkeOracle().check_valid(f, bound=bound)
