"""Degree-k normal forms for additive logics.

Enumerate the normal-form spaces of a logic equipped with a
domain-representation system, rewrite any formula into an equivalent
disjunction of forms of its own degree, and verify the results against
exhaustive finite-model oracles at desk scale.
"""
from .constituents import (
    DEFAULT_CAP,
    ConstituentSpace,
    count,
    partition_check,
    space,
)
from .domain_system import DomainSystem, Generator, SuitabilityReport, derive_generator, suitable
from .errors import (
    BudgetExceeded,
    CapExceeded,
    DomainViolation,
    EngineError,
    NotLargeEnough,
    ParseError,
    UnknownSymbolError,
    UnsuitableGenerator,
)
from .logics.base import Report
from .rewriter import NormalizationResult, disjunction, normalize, verify, verify_many
from .syntax import (
    And,
    App,
    ConnectiveSig,
    Formula,
    GuardPayload,
    LogicDef,
    Not,
    Or,
    Prop,
    conj_all,
    disj_all,
    parse_formula,
    render_formula,
    render_formulas,
    shape,
)

__version__ = "0.1.0"

__all__ = [
    "And",
    "App",
    "BudgetExceeded",
    "CapExceeded",
    "ConnectiveSig",
    "ConstituentSpace",
    "DEFAULT_CAP",
    "DomainSystem",
    "DomainViolation",
    "EngineError",
    "Formula",
    "Generator",
    "GuardPayload",
    "LogicDef",
    "NormalizationResult",
    "Not",
    "NotLargeEnough",
    "Or",
    "ParseError",
    "Prop",
    "Report",
    "SuitabilityReport",
    "UnknownSymbolError",
    "UnsuitableGenerator",
    "conj_all",
    "count",
    "derive_generator",
    "disj_all",
    "disjunction",
    "normalize",
    "parse_formula",
    "partition_check",
    "render_formula",
    "render_formulas",
    "shape",
    "space",
    "suitable",
    "verify",
    "verify_many",
]
