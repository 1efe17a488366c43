"""Abstract syntax, DSL parser/printer, substitution and freshness."""

from .ast import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, Domain, DomainTable,
    Eq, Exists, Forall, Formula, Member, Neq, Or, Outcome, Sequent, Sharp,
    Star, Term, Var, alpha_eq, alpha_eq_all, bound_vars, children,
    free_vars, is_closed, is_singleton_literal, map_children,
    sharp_domain_name, sharp_pred_name, singleton_literal_name, term_prob,
    term_state, walk,
)
from .parser import parse_formula, parse_sequent, parse_term, tokenize
from .printer import (
    render, render_domain, render_formula, render_rational, render_sequent,
    render_term,
)
from .subst import (
    forgetful_formula, fresh_var, replace_term_occurrences, subst_formula,
    subst_sequent, substitute,
)

__all__ = [
    "And", "Atom", "Bot", "Bowtie", "ContextVar", "Correlated", "Domain",
    "DomainTable", "Eq", "Exists", "Forall", "Formula", "Member", "Neq",
    "Or", "Outcome", "Sequent", "Sharp", "Star", "Term",
    "Var", "alpha_eq", "alpha_eq_all", "bound_vars", "children",
    "free_vars", "is_closed", "is_singleton_literal", "map_children",
    "sharp_domain_name", "sharp_pred_name", "singleton_literal_name",
    "term_prob", "term_state", "walk",
    "parse_formula", "parse_sequent", "parse_term", "tokenize",
    "render", "render_domain", "render_formula", "render_rational",
    "render_sequent", "render_term",
    "forgetful_formula", "fresh_var",
    "replace_term_occurrences", "subst_formula", "subst_sequent",
    "substitute",
]
