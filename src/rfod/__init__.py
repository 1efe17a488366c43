"""Proof kernel for sequent calculi over random first-order domains.

The `syntax` package holds the term/formula/sequent language with its
parser and canonical printer; `calculus` the rule catalog, checker and
proof scripts; `theorems` the mechanical replays of the named results;
`quantum` the small Hilbert-space backend; `cli` the command line.

`import rfod` imports `quantum` but not numpy: states, measurement,
translation and the Schmidt decomposition are pure Python, and numpy
loads only at the first use of a density operator, so checking,
deriving, measuring and translating never pay for it.
"""

from .errors import (
    DomainError, DslSyntaxError, FragmentError, LookupFailure,
    PreconditionError, RfodError, RuleError, SubstitutionError,
)
from .syntax import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, Domain, DomainTable,
    Eq, Exists, Forall, Formula, Member, Neq, Or, Outcome, Sequent, Sharp,
    Star, Term, Var, alpha_eq, free_vars, parse_formula, parse_sequent,
    parse_term, substitute,
)
from .syntax import render as _render_syntax
from .calculus import (
    CheckReport, Derivation, ProofScript, RuleId, TheoryConfig, Verdict,
    check, check_script, dualize, equation_step, parse_script, rule_step,
    serialize_derivation,
)
from .theorems import (
    Judgement, ReversibilityVerdict, build_uncertainty,
    check_reversibility, derive_collapse_and_repeat, derive_distributivity,
    derive_lemma1, derive_prop1, derive_prop2, derive_reflection,
    derive_remeasure, generalize, schematic_domain,
)
from . import quantum

__version__ = "0.1.0"


def render(node) -> str:
    """Canonical text for terms, formulas, sequents, domains, derivations."""
    if isinstance(node, Derivation):
        return serialize_derivation(node)
    return _render_syntax(node)

__all__ = [
    "DomainError", "DslSyntaxError", "FragmentError", "LookupFailure",
    "PreconditionError", "RfodError", "RuleError", "SubstitutionError",
    "And", "Atom", "Bot", "Bowtie", "ContextVar", "Correlated", "Domain",
    "DomainTable", "Eq", "Exists", "Forall", "Formula", "Member", "Neq",
    "Or", "Outcome", "Sequent", "Sharp", "Star", "Term", "Var", "alpha_eq",
    "free_vars", "parse_formula", "parse_sequent", "parse_term", "render",
    "substitute", "CheckReport", "Derivation", "ProofScript", "RuleId",
    "TheoryConfig", "Verdict", "check", "check_script", "dualize",
    "equation_step", "parse_script", "rule_step", "serialize_derivation",
    "Judgement", "ReversibilityVerdict", "build_uncertainty",
    "check_reversibility", "derive_collapse_and_repeat",
    "derive_distributivity", "derive_lemma1", "derive_prop1",
    "derive_prop2", "derive_reflection", "derive_remeasure", "generalize",
    "schematic_domain", "quantum",
]
