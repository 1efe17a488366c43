"""Canonical ASCII rendering of terms, formulas, sequents and domains.

The printer is deterministic and inverse to the parser: parsing its output
gives back an alpha-equivalent value.  Binary connectives associate to the
right; parentheses are emitted only where the grammar requires them.
"""
from __future__ import annotations

from fractions import Fraction

from .ast import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, Domain, Eq, Exists,
    Forall, Formula, Member, Neq, Or, Sequent, Sharp, Star, Outcome, Term, Var,
)

# precedence levels: quantifiers bind weakest, then * < \/ < &
_LEVEL_FORMULA = 0
_LEVEL_STAR = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNIT = 4

#: chain class -> (operator, level of a left operand, level of the chain)
_CHAINS = {
    Star: (" * ", _LEVEL_OR, _LEVEL_STAR),
    Or: (" \\/ ", _LEVEL_AND, _LEVEL_OR),
    And: (" & ", _LEVEL_UNIT, _LEVEL_AND),
}


def render_rational(p: Fraction) -> str:
    if p.denominator == 1:
        return str(p.numerator)
    return f"{p.numerator}/{p.denominator}"


def render_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Outcome):
        return f"<{t.state}, {render_rational(t.prob)}>"
    if isinstance(t, Sharp):
        return f"#{t.state}"
    raise TypeError(f"render_term: unsupported term {t!r}")


def render_formula(f: Formula, level: int = _LEVEL_FORMULA) -> str:
    if isinstance(f, (Forall, Exists)):
        kw = "forall" if isinstance(f, Forall) else "exists"
        body = render_formula(f.body, _LEVEL_FORMULA)
        text = f"{kw} {f.var} in {f.domain} . {body}"
        return f"({text})" if level > _LEVEL_FORMULA else text
    if isinstance(f, Bowtie):
        left = render_formula(f.left, _LEVEL_FORMULA)
        right = render_formula(f.right, _LEVEL_FORMULA)
        text = f"bowtie {f.var} in {f.domain} ({left}; {right})"
        return f"({text})" if level > _LEVEL_FORMULA else text
    chain = _CHAINS.get(type(f))
    if chain is not None:
        # a right-nested chain is printed as one operand list
        op, operand_level, own_level = chain
        cls = type(f)
        parts = []
        while type(f) is cls:
            parts.append(render_formula(f.left, operand_level))
            f = f.right
        parts.append(render_formula(f, own_level))
        text = op.join(parts)
        return f"({text})" if level > own_level else text
    if isinstance(f, Atom):
        args = ", ".join(render_term(a) for a in f.args)
        return f"{f.pred}({args})"
    if isinstance(f, Member):
        return f"{render_term(f.term)} in {f.domain}"
    if isinstance(f, Eq):
        return f"{render_term(f.left)} = {render_term(f.right)}"
    if isinstance(f, Neq):
        return f"{render_term(f.left)} != {render_term(f.right)}"
    if isinstance(f, Bot):
        return "bot" if f.label is None else f"bot_{f.label}"
    raise TypeError(f"render_formula: unsupported formula {f!r}")


def _render_item(item) -> str:
    if isinstance(item, ContextVar):
        return item.name
    return render_formula(item)


def render_sequent(s: Sequent) -> str:
    parts = []
    for slot in s.succedent:
        if isinstance(slot, Correlated):
            parts.append(f"{render_formula(slot.left)} ,_{slot.label} "
                         f"{render_formula(slot.right)}")
        else:
            parts.append(_render_item(slot))
    left = ", ".join(_render_item(i) for i in s.antecedent)
    right = ", ".join(parts)
    if left and right:
        return f"{left} |- {right}"
    if left:
        return f"{left} |-"
    if right:
        return f"|- {right}"
    return "|-"


def render_domain(d: Domain) -> str:
    elems = ", ".join(render_term(e) for e in d.elements)
    return f"{d.name} = {{ {elems} }}"


def render(node) -> str:
    """Dispatching canonical printer (terms, formulas, sequents, domains)."""
    if isinstance(node, Term):
        return render_term(node)
    if isinstance(node, Formula):
        return render_formula(node)
    if isinstance(node, ContextVar):
        return node.name
    if isinstance(node, Sequent):
        return render_sequent(node)
    if isinstance(node, Domain):
        return render_domain(node)
    raise TypeError(f"render: unsupported node {node!r}")
