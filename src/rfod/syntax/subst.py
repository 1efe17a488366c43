"""Capture-avoiding substitution, forgetful substitution, freshness."""
from __future__ import annotations

from typing import Iterable, Optional

from ..errors import SubstitutionError
from .ast import (
    BINDERS, Atom, Formula, Member, Sequent, Sharp, Term, Var, children,
    free_vars, is_closed, rewrite, sharp_domain_name, sharp_pred_name,
)


def fresh_var(avoid: Iterable[str]) -> str:
    """Deterministic fresh-name supply: z, y, z1, z2, ..."""
    taken = set(avoid)
    for name in ("z", "y"):
        if name not in taken:
            return name
    i = 1
    while f"z{i}" in taken:
        i += 1
    return f"z{i}"


def subst_formula(f, v: str, t: Term):
    """Replace free occurrences of v by t in a term, formula, item or
    sequent, renaming binders that would capture.  Whatever holds no free
    v comes back as the same object."""

    def enter(node, _):
        cls = type(node)
        if cls is Var:
            return (t if node.name == v else node), None
        if cls not in BINDERS:
            return node, ()
        if node.var == v:
            return node, None
        if not (type(t) is Var and t.name == node.var):
            return node, ()
        free = free_vars(node)
        if v not in free:
            return node, None
        new = fresh_var(free | {v, t.name})
        renamed = (subst_formula(c, node.var, Var(new))
                   for c in children(node))
        return cls(new, node.domain, *renamed), ()

    return rewrite(f, enter)


def substitute(f: Formula, v: str, t: Term, mode: str = "plain") -> Formula:
    """Public substitution operation.

    ``plain`` replaces free occurrences of v by the closed term t.
    ``forgetful`` additionally requires t sharp: memberships of v move to
    the sharp companion set and predicates applied to v gain the ^f mark,
    modelling a selective measurement.
    """
    if mode not in ("plain", "forgetful"):
        raise SubstitutionError(f"unknown substitution mode {mode!r}")
    if not is_closed(t):
        raise SubstitutionError(f"substituted term must be closed, got {t!r}")
    return subst_sequent(f, v, t, mode)


def forgetful_formula(f, v: str, t: Sharp):
    def enter(node, _):
        cls = type(node)
        if cls is Var:
            return (t if node.name == v else node), None
        if cls is Atom and any(type(a) is Var and a.name == v
                               for a in node.args):
            return Atom(sharp_pred_name(node.pred), node.args), ()
        if cls is Member and type(node.term) is Var and node.term.name == v:
            return Member(t, sharp_domain_name(node.domain)), None
        if cls in BINDERS and node.var == v:
            return node, None
        return node, ()

    return rewrite(f, enter)


def subst_sequent(s: Sequent, v: str, t: Term, mode: str = "plain") -> Sequent:
    """Substitute throughout a sequent; context metavariables pass unchanged
    (the contexts they stand for do not depend on the variable)."""
    if mode == "plain":
        return subst_formula(s, v, t)
    if not isinstance(t, Sharp):
        raise SubstitutionError("forgetful substitution requires a sharp term")
    return forgetful_formula(s, v, t)


# ---------------------------------------------------------------------------
# occurrence-indexed replacement (used by the equality equation)

def replace_term_occurrences(s: Sequent, old: Term, new: Term,
                             positions: Optional[Iterable[int]] = None) -> Sequent:
    """Replace occurrences of ``old`` throughout the sequent.

    Positions are 1-based over the occurrences of ``old`` in reading order
    (antecedent before succedent, left to right); None means all.  Spots
    where ``old`` is a variable bound by an enclosing quantifier do not
    count as occurrences.
    """
    wanted = None if positions is None else set(positions)
    counter = [0]
    closed = not isinstance(old, Var)

    def enter(node, shadowed):
        if isinstance(node, Term):
            if node == old and (closed or old.name not in shadowed):
                counter[0] += 1
                if wanted is None or counter[0] in wanted:
                    return new, None
            return node, None
        if type(node) in BINDERS:
            return node, shadowed | {node.var}
        return node, shadowed

    return rewrite(s, enter, frozenset())
