"""Canonical ASCII rendering of terms, formulas, sequents and domains.

The printer is deterministic and inverse to the parser: parsing its output
gives back an alpha-equivalent value.  Binary connectives associate to the
right; parentheses are emitted only where the grammar requires them.

The text of every node class is written once, in the ``_TEXT`` table, and
one loop with an explicit stack fills in the children, so the depth of a
formula costs the printer no recursion.

A script repeats the same sequent items step after step, and the builders
and the parse memo share them as one node.  ``render`` may be given a memo,
``id(node) -> (node, text, offset)``, that lives for one script: a node
found in it is not rendered again, its text is ``text[offset:]``.  It is
keyed by identity because a node's ``==`` and hash walk the whole node,
and it holds the node so that the id cannot be reused while the memo
lives.  It stores leaves, sequent items (the children of a ``Sequent``)
and the links on the right spine of an ``&``, ``\\/`` or ``*`` chain item.
A link's text is a suffix of its item's, so it is stored as the item's
text and the offset where it starts, and nothing is copied until a hit
slices it.  Keeping the text of every nested node would copy each
character once per level above it, quadratic on a deeply nested item.  A
step that takes the first operand off a chain item finds the rest there.
A stored text is the node at level 0, without outer parentheses; a node
found in the memo where its level is too loose is put in parentheses
there, as it would be when rendered.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import Optional

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
_CHAINS = (And, Or, Star)


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


def render(node, level: int = _LEVEL_FORMULA,
           memo: Optional[dict] = None) -> str:
    """Canonical text of a node, in parentheses where ``level`` needs them.

    ``memo``, when given, supplies the text of every node it holds and
    receives that of every leaf, sequent item and link of a chain item
    rendered here (see the module docstring)."""
    out = []
    stack = [iter([(node, level)])]  # the parts each open node has left
    # a Sequent is never a child, so its items are the second frame's parts
    items = 2 if memo is not None and type(node) is Sequent else 0
    # the open item: (node, where its text starts in out, where each operand
    # of its chain after the first starts in out)
    item = None
    links = 0  # the depth of the frame of the open item, if it is a chain
    while stack:
        for part in stack[-1]:
            if type(part) is str:
                out.append(part)
                if len(stack) == links:  # an operator of the chain item
                    item[2].append(len(out))
                continue
            n, at = part if type(part) is tuple else (part, _LEVEL_FORMULA)
            row = _TEXT[type(n)]
            if memo is not None:
                hit = memo.get(id(n))
                if hit is not None:
                    cached = hit[1][hit[2]:]
                    if type(row) is tuple and at > row[0]:
                        out += ("(", cached, ")")
                    else:
                        out.append(cached)
                    continue
            if type(row) is not tuple:
                out.append(row(n))
                if memo is not None:
                    memo[id(n)] = (n, out[-1], 0)
                continue
            own, text = row
            parts = text(n)
            if len(stack) == items:
                item = (n, len(out), [])
                links = items + 1 if type(n) in _CHAINS else 0
            stack.append(iter(["(", *parts, ")"] if at > own else parts))
            break
        else:
            stack.pop()
            if item is not None and len(stack) == items:
                n, start, starts = item
                ends = list(accumulate(map(len, out[start:])))
                out[start:] = ["".join(out[start:])]
                memo[id(n)] = (n, out[start], 0)
                for at in starts[:-1]:  # the last operand ends the chain
                    n = n.right
                    memo[id(n)] = (n, out[start], ends[at - start - 1])
                item, links = None, 0
    return "".join(out)


render_formula = render_domain = render


def render_sequent(s: Sequent, memo: Optional[dict] = None) -> str:
    return render(s, memo=memo)
