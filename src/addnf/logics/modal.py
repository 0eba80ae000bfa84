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
code: an edge w -> u).  Blocks of these models are evaluated by the
shared ``RelationalBlock`` (see ``base``); a diamond costs n*n
shift/AND/OR steps.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..domain_system import DomainSystem, Generator
from ..errors import EngineError
from ..syntax import ConnectiveSig, LogicDef
from .base import Instance, PackedOracle, RelationalBlock, Where, stacked

POINT = "*"


class _KripkeBlock(RelationalBlock):
    def describe(self) -> dict:
        where = self.layout.where
        return {
            "kind": "kripke",
            "worlds": self.points,
            "relations": where.tuples(self.start),
            "valuation": where.values(self.start),
        }

    def point_desc(self, point: int) -> dict:
        return {"world": point}


class KripkeOracle(PackedOracle):
    """Bounded Kripke-model search; sound refuter, complete only up to bound."""

    exact = False
    block_type = _KripkeBlock

    def where(self, gen: Generator, size: int) -> Where:
        props = sorted(gen.X)
        conns = gen.sorted_conns()
        for c in conns:
            if c.rank != 1:
                raise EngineError(f"Kripke search supports unary diamonds only, not {c.key}")
        n = size
        offsets = stacked(n * len(props), [n * n] * len(conns))
        return Where(
            n, n,
            {p: j * n for j, p in enumerate(props)},
            {c.key: (off, 2) for c, off in zip(conns, offsets)},
        )

    def model_bits(self, gen: Generator, size: int) -> int:
        return size * len(gen.X) + size * size * len(gen.Y)


@dataclass
class ModalKInstance(Instance):
    diamonds: tuple[ConnectiveSig, ...]


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
    logic = LogicDef(
        name="modal-k",
        domain=ds,
        connectives={s.name: s for s in sigs},
        propositions=frozenset(propositions) if propositions is not None else None,
    )
    return ModalKInstance(logic=logic, oracle=KripkeOracle(), diamonds=sigs)
