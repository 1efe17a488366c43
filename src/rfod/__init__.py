"""Proof kernel for sequent calculi over random first-order domains.

The `syntax` package holds the term/formula/sequent language with its
parser and canonical printer; `calculus` the rule catalog, checker and
proof scripts; `theorems` the mechanical replays of the named results;
`quantum` the small Hilbert-space backend; `cli` the command line.

`import rfod` loads `syntax`, `calculus` and `quantum`.  `theorems` loads
on first use of one of its names here (or of `rfod.theorems`), so a
command that only checks or translates never pays for it.  numpy is never
loaded by the import: states, measurement, translation and the Schmidt
decomposition are pure Python, and numpy loads only at the first use of a
density operator.
"""

from importlib import import_module

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
from . import quantum

_THEOREMS = (
    "Judgement", "ReversibilityVerdict", "build_uncertainty",
    "check_reversibility", "derive_collapse_and_repeat",
    "derive_distributivity", "derive_lemma1", "derive_prop1",
    "derive_prop2", "derive_reflection", "derive_remeasure", "generalize",
    "schematic_domain",
)

__version__ = "0.1.0"


def render(node) -> str:
    """Canonical text for terms, formulas, sequents, domains, derivations."""
    if isinstance(node, Derivation):
        return serialize_derivation(node)
    return _render_syntax(node)


def __getattr__(name: str):
    """The names of `theorems`, which loads at the first of them."""
    if name == "theorems" or name in _THEOREMS:
        # not `from . import theorems`, which would look the name up here
        theorems = import_module(".theorems", __name__)
        return theorems if name == "theorems" else getattr(theorems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    *_THEOREMS, "quantum",
]
