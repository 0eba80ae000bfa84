"""The shipped logic instances and their bounded semantic oracles."""
from __future__ import annotations

from ..errors import EngineError
from .bao import bao_instance
from .base import DEFAULT_BOUND, Instance, Oracle, RelationalOracle, Report
from .gf import GFInstance, GFOracle, gf_instance, gf_validate
from .modal import ModalKInstance, modal_k_instance
from .prop import propositional_instance

# Each logic: its factory and the config keys it reads, which are the
# factory's parameters, in order; every default is the factory's own.
_FACTORIES = {
    "prop": (propositional_instance, ("propositions",)),
    "modal-k": (modal_k_instance, ("diamonds", "propositions")),
    "gf": (gf_instance, ("variables", "relations", "equality")),
    "bao": (bao_instance, ("operators", "constants", "variables")),
}
LOGIC_IDS = tuple(_FACTORIES)


def _names(value) -> bool:
    return isinstance(value, (list, tuple)) and all(isinstance(x, str) for x in value)


def _arities(value) -> bool:
    return isinstance(value, dict) and all(
        isinstance(k, str) and type(n) is int for k, n in value.items()
    )


# Each config key: (the check its value must pass, what the check asks for).
_CONFIG_TYPES = {
    "propositions": (lambda v: v is None or _names(v), "a list of names or null"),
    "diamonds": (_names, "a list of names"),
    "variables": (_names, "a list of names"),
    "constants": (_names, "a list of names"),
    "relations": (_arities, "an object mapping names to integer arities"),
    "operators": (_arities, "an object mapping names to integer ranks"),
    "equality": (lambda v: isinstance(v, bool), "true or false"),
}


def build_instance(logic_id: str, config: dict | None = None) -> Instance:
    """Construct one of the shipped instances from a plain config dict,
    passed to its factory by name once every key is checked."""
    if logic_id not in _FACTORIES:
        raise EngineError(f"unknown logic {logic_id!r}; expected one of {', '.join(LOGIC_IDS)}")
    factory, accepted = _FACTORIES[logic_id]
    config = dict(config or {})
    for key, value in config.items():
        if key not in accepted:
            raise EngineError(f"config key {key!r} is not read by {logic_id}; "
                              f"accepted keys: {', '.join(accepted)}")
        check, what = _CONFIG_TYPES[key]
        if not check(value):
            raise EngineError(f"config key {key!r} must be {what}, got {value!r}")
    return factory(**config)


__all__ = [
    "DEFAULT_BOUND",
    "GFInstance",
    "GFOracle",
    "Instance",
    "LOGIC_IDS",
    "ModalKInstance",
    "Oracle",
    "RelationalOracle",
    "Report",
    "bao_instance",
    "build_instance",
    "gf_instance",
    "gf_validate",
    "modal_k_instance",
    "propositional_instance",
]
