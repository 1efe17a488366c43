"""Canonical ASCII rendering of terms, formulas, sequents and domains.

The printer is deterministic and inverse to the parser: parsing its output
gives back an alpha-equivalent value.  Binary connectives associate to the
right; parentheses are emitted only where the grammar requires them.

The text of every node class is written once, in the ``_TEXT`` table, and
one loop with an explicit stack fills in the children, so the depth of a
formula costs the printer no recursion.
"""
from __future__ import annotations

from fractions import Fraction

from .ast import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, Domain, Eq, Exists,
    Forall, Member, Neq, Or, Outcome, Sequent, Sharp, Star, Var, _ShapeTable,
)

# precedence levels: quantifiers bind weakest, then * < \/ < &
_LEVEL_FORMULA = 0
_LEVEL_STAR = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNIT = 4


def render_rational(p: Fraction) -> str:
    if p.denominator == 1:
        return str(p.numerator)
    return f"{p.numerator}/{p.denominator}"


def _sequent(s: Sequent) -> list:
    parts = []
    for item in s.antecedent:
        parts += (item, ", ")
    parts[-1:] = [" |-"] if parts else ["|-"]
    for i, item in enumerate(s.succedent):
        parts += (", " if i else " ", item)
    return parts


def render_term(t) -> str:
    return _TEXT[type(t)](t)


def _chain(op: str, left_level: int, level: int):
    """A binary node's row; a right-nested chain prints as one operand list."""
    def text(n):
        cls, parts = type(n), []
        while type(n) is cls:
            parts += ((n.left, left_level), op)
            n = n.right
        return [*parts, (n, level)]
    return level, text


#: node class -> text for a leaf, or else (level, text): the loosest level
#: at which the node needs no parentheses, and its text as a list of
#: strings and holes, each a (child, level) or a bare child at level 0
_TEXT = _ShapeTable({
    Var: lambda n: n.name,
    Outcome: lambda n: f"<{n.state}, {render_rational(n.prob)}>",
    Sharp: lambda n: f"#{n.state}",
    ContextVar: lambda n: n.name,
    Atom: lambda n: f"{n.pred}({', '.join(map(render_term, n.args))})",
    Member: lambda n: f"{render_term(n.term)} in {n.domain}",
    Eq: lambda n: f"{render_term(n.left)} = {render_term(n.right)}",
    Neq: lambda n: f"{render_term(n.left)} != {render_term(n.right)}",
    Bot: lambda n: "bot" if n.label is None else f"bot_{n.label}",
    Domain: lambda n: "%s = { %s }" % (
        n.name, ", ".join(map(render_term, n.elements))),
    And: _chain(" & ", _LEVEL_UNIT, _LEVEL_AND),
    Or: _chain(" \\/ ", _LEVEL_AND, _LEVEL_OR),
    Star: _chain(" * ", _LEVEL_OR, _LEVEL_STAR),
    Forall: (_LEVEL_FORMULA,
             lambda n: [f"forall {n.var} in {n.domain} . ", n.body]),
    Exists: (_LEVEL_FORMULA,
             lambda n: [f"exists {n.var} in {n.domain} . ", n.body]),
    Bowtie: (_LEVEL_FORMULA, lambda n: [
        f"bowtie {n.var} in {n.domain} (", n.left, "; ", n.right, ")"]),
    Correlated: (_LEVEL_FORMULA,
                 lambda n: [n.left, f" ,_{n.label} ", n.right]),
    Sequent: (_LEVEL_FORMULA, _sequent),
})


def render(node, level: int = _LEVEL_FORMULA) -> str:
    """Canonical text of a node, in parentheses where ``level`` needs them."""
    out = []
    stack = [iter([(node, level)])]  # the parts each open node has left
    while stack:
        for part in stack[-1]:
            if type(part) is str:
                out.append(part)
                continue
            n, at = part if type(part) is tuple else (part, _LEVEL_FORMULA)
            row = _TEXT[type(n)]
            if type(row) is not tuple:
                out.append(row(n))
                continue
            own, text = row
            stack.append(iter(["(", *text(n), ")"] if at > own else text(n)))
            break
        else:
            stack.pop()
    return "".join(out)


render_formula = render_domain = render


def render_sequent(s: Sequent) -> str:
    return render(s)
