"""Rule catalog, derivation checker, duality transform, proof scripts."""

from .checker import (
    CheckReport, Derivation, StepReport, check, rule_step, validate_step,
)
from .rules import (
    AXIOMS, BACKWARD, EQUATIONS, FORWARD, RuleId, TheoryConfig,
    Verdict, bot_label, build_and, correlation_label, dualize,
    equation_step, flatten_or, pick_bound_name,
)
from .script import (
    ProofScript, check_script, derivation_to_json, domain_to_json,
    parse_script, script_to_derivation, serialize_derivation,
)

__all__ = [
    "CheckReport", "Derivation", "StepReport", "check", "rule_step",
    "validate_step", "AXIOMS", "BACKWARD", "EQUATIONS", "FORWARD",
    "RuleId", "TheoryConfig", "Verdict", "bot_label", "build_and",
    "correlation_label", "dualize", "equation_step",
    "flatten_or", "pick_bound_name", "ProofScript", "check_script",
    "derivation_to_json", "domain_to_json",
    "parse_script", "script_to_derivation", "serialize_derivation",
]
