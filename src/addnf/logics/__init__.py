"""The shipped logic instances and their bounded semantic oracles."""
from __future__ import annotations

from ..errors import EngineError
from .bao import BAOInstance, ComplexAlgebraOracle, bao_instance
from .base import DEFAULT_BOUND, Oracle, Report
from .gf import GFInstance, GFOracle, gf_instance, gf_validate
from .modal import KripkeOracle, ModalKInstance, modal_k_instance
from .prop import PropositionalInstance, TruthTableOracle, propositional_instance

LOGIC_IDS = ("prop", "modal-k", "gf", "bao")


def build_instance(logic_id: str, config: dict | None = None):
    """Construct one of the shipped instances from a plain config dict."""
    config = dict(config or {})
    if logic_id == "prop":
        return propositional_instance(config.get("propositions"))
    if logic_id == "modal-k":
        return modal_k_instance(
            tuple(config.get("diamonds", ("dia",))),
            config.get("propositions"),
        )
    if logic_id == "gf":
        return gf_instance(
            tuple(config.get("variables", ("u", "v"))),
            config.get("relations", {"R": 2}),
            bool(config.get("equality", False)),
        )
    if logic_id == "bao":
        return bao_instance(
            config.get("operators", {"f": 1}),
            tuple(config.get("constants", ())),
            tuple(config.get("variables", ("x",))),
        )
    raise EngineError(f"unknown logic {logic_id!r}; expected one of {', '.join(LOGIC_IDS)}")


__all__ = [
    "BAOInstance",
    "ComplexAlgebraOracle",
    "DEFAULT_BOUND",
    "GFInstance",
    "GFOracle",
    "KripkeOracle",
    "LOGIC_IDS",
    "ModalKInstance",
    "Oracle",
    "PropositionalInstance",
    "Report",
    "TruthTableOracle",
    "bao_instance",
    "build_instance",
    "gf_instance",
    "gf_validate",
    "modal_k_instance",
    "propositional_instance",
]
