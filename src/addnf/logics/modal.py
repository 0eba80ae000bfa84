"""The modal K instance: unary diamonds as full operators.

Verification is the shared ``RelationalOracle`` search (see ``base``): an
exhaustive search over Kripke frames with at most ``bound`` worlds (every
accessibility relation per diamond, every valuation of the relevant
propositions, every evaluation world), with the diamond read
existentially as the rank-1 case of a normal additive operator.
Refutation-complete only up to the bound; a tableau decision procedure
would be a separate extension.  A diamond costs n*n shift/AND/OR steps
on frames of n worlds.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..syntax import ConnectiveSig, LogicDef
from .base import Instance, RelationalOracle, one_point_domain


@dataclass
class ModalKInstance(Instance):
    diamonds: tuple[ConnectiveSig, ...]


def modal_k_instance(diamonds=("dia",), propositions=None) -> ModalKInstance:
    """Build the instance with one unary diamond per given name."""
    sigs = tuple(ConnectiveSig(name, 1) for name in diamonds)
    logic = LogicDef(
        name="modal-k",
        domain=one_point_domain(sigs),
        connectives={s.name: s for s in sigs},
        propositions=frozenset(propositions) if propositions is not None else None,
    )
    return ModalKInstance(logic=logic, oracle=RelationalOracle(), diamonds=sigs)
