"""Lexer and recursive-descent parser for the sequent DSL.

Grammar (ASCII):

    sequent   := context "|-" succedent
    context   := /*empty*/ | item ("," item)*
    item      := formula | CTXVAR
    succedent := /*empty*/ | slot (("," | ",_" IDENT) slot)*
    formula   := "forall" VAR "in" DOM "." formula
               | "exists" VAR "in" DOM "." formula
               | "bowtie" VAR "in" DOM "(" formula ";" formula ")"
               | star-chain over or-chain over and-chain of units
    unit      := IDENT "(" term ("," term)* ")" | term "=" term
               | term "!=" term | term "in" DOM | "bot" | "bot_" IDENT
               | "(" formula ")"
    term      := VAR | "<" IDENT "," RATIONAL ">" | "#" IDENT
    DOM       := IDENT | "{" IDENT "}"

Quantifiers bind weakest; & binds tighter than \\/ which binds tighter
than *.  Comments run from "--" to end of line.  A bare identifier in
item position is a context metavariable.  An empty succedent is allowed
(duality can empty the right-hand side).

Three tokens only proof-script lines use: ``::`` before a step's
conclusion, ``"`` around a parameter value, ``/`` before an arity.

The lexer is one scan over one pattern, from a given line number, so a
line of a larger file keeps its real positions.  An outcome term written
on one line, ``<t, 1/2>``, is a single ``outcome`` lexeme, and equal
lexemes share one ``Outcome`` object.  Chains of ``&``, ``\\/`` and ``*``
are read as operand lists and built right-nested, so their length costs
no recursion depth.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from ..errors import DomainError, DslSyntaxError, LookupFailure
from .ast import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, DomainTable, Eq, Exists,
    Forall, Formula, Member, Neq, Or, Outcome, Sequent, Sharp, Star, Term, Var,
    walk,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_'^]*"
_KEYWORDS = frozenset({"forall", "exists", "bowtie", "in", "bot"})
_WITH_DOMAIN = frozenset({Member, Forall, Exists, Bowtie})
# Each parenthesis costs the parser eight stack frames, a binder one; a
# text nested deeper is refused at the token that opens the extra level,
# well inside the interpreter's default recursion limit.
MAX_NESTING = 100
# An outcome lexeme matches only what the token-by-token reading of '<'
# would accept: the state is not a keyword, the rational is the one token
# the lexer would cut there, and its denominator is not zero.
_OUTCOME = (r"<[ \t\r]*(?!(?:%s)(?![A-Za-z0-9_'^]))%s[ \t\r]*,[ \t\r]*"
            r"(?:\d+(?:/0*[1-9]\d*)?|\.\d+)[ \t\r]*>"
            % ("|".join(sorted(_KEYWORDS)), _IDENT))

_TOKEN_RE = re.compile(r"""[ \t\r]*(?:
    (?P<comment>--[^\n]*)
  | (?P<newline>\n)
  | (?P<outcome>%s)
  | (?P<turnstile>\|-)
  | (?P<orop>\\/)
  | (?P<comma_label>,_%s)
  | (?P<rational>\d+(?:/\d+)?|\d*\.\d+)
  | (?P<ident>%s)
  | (?P<neq>!=)
  | (?P<punct>::|[,.;()<>{}#&*=/"])
  | (?P<error>[^ \t\r])
)""" % (_OUTCOME, _IDENT, _IDENT), re.VERBOSE)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str, line: int = 1) -> list:
    tokens = []
    append = tokens.append
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        if kind == "comment":
            continue
        value = m[kind]
        col = m.start(kind) - line_start + 1
        if kind == "punct" or (kind == "ident" and value in _KEYWORDS):
            kind = value
        elif kind == "error":
            raise DslSyntaxError(f"unexpected character {value!r}", line, col)
        append(Token(kind, value, line, col))
    append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


@lru_cache(maxsize=4096)
def _outcome(lexeme: str) -> Outcome:
    state, _, prob = lexeme[1:-1].partition(",")
    return Outcome(state.strip(), Fraction(prob.strip()))


def _shown(tok: Token) -> str:
    # an outcome lexeme is quoted by its '<', the token an error in the
    # token-by-token reading of the same text would quote
    return "<" if tok.kind == "outcome" else tok.text


class _Parser:
    def __init__(self, text: str, line: int = 1):
        self.tokens = tokenize(text, line)
        self.i = 0
        self.depth = 0  # open parentheses and binders

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        i = self.i + ahead
        tokens = self.tokens
        return tokens[i] if i < len(tokens) else tokens[-1]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {_shown(tok)!r}", tok)
        self.i += 1
        return tok

    def fail(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise DslSyntaxError(message, tok.line, tok.column)

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i].kind != kind:
            return False
        self.i += 1
        return True

    def at_end(self) -> bool:
        return self.tokens[self.i].kind == "eof"

    def finish(self) -> None:
        if not self.at_end():
            self.fail(f"trailing input {_shown(self.peek())!r}")

    # -- terms and domain references ---------------------------------------
    def parse_term(self) -> Term:
        tok = self.tokens[self.i]
        kind = tok.kind
        if kind == "ident":
            self.i += 1
            return Var(tok.text)
        try:
            if kind == "outcome":
                self.i += 1
                return _outcome(tok.text)
            if kind == "<":
                # reached only by an outcome term that is not one lexeme:
                # one spread over lines or comments, or a malformed one,
                # whose error this reading places at its failing token
                self.i += 1
                state = self.expect("ident").text
                self.expect(",")
                prob = self.parse_rational()
                self.expect(">")
                return Outcome(state, prob)
        except DomainError as exc:
            # a probability out of range, placed at the term
            self.fail(str(exc), tok)
        if kind == "#":
            self.i += 1
            return Sharp(self.expect("ident").text)
        self.fail(f"expected a term, found {_shown(tok)!r}", tok)

    def parse_rational(self) -> Fraction:
        tok = self.expect("rational")
        try:
            return Fraction(tok.text)
        except (ValueError, ZeroDivisionError):
            self.fail(f"bad rational literal {tok.text!r}", tok)

    def parse_domain_ref(self) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            self.next()
            return tok.text
        if self.accept("{"):
            label = self.expect("ident").text
            self.expect("}")
            return "{" + label + "}"
        self.fail(f"expected a domain name, found {_shown(tok)!r}", tok)

    # -- formulas ------------------------------------------------------------
    def enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"formula nested deeper than {MAX_NESTING} levels", tok)

    def parse_formula(self) -> Formula:
        tok = self.peek()
        if tok.kind in ("forall", "exists"):
            self.enter(tok)
            self.next()
            var = self.expect("ident").text
            self.expect("in")
            dom = self.parse_domain_ref()
            self.expect(".")
            body = self.parse_formula()
            self.depth -= 1
            return (Forall if tok.kind == "forall" else Exists)(var, dom, body)
        if tok.kind == "bowtie":
            self.enter(tok)
            self.next()
            var = self.expect("ident").text
            self.expect("in")
            dom = self.parse_domain_ref()
            self.expect("(")
            left = self.parse_formula()
            self.expect(";")
            right = self.parse_formula()
            self.expect(")")
            self.depth -= 1
            return Bowtie(var, dom, left, right)
        return self.parse_star()

    def parse_star(self) -> Formula:
        return self._chain(self.parse_or, "*", Star)

    def parse_or(self) -> Formula:
        return self._chain(self.parse_and, "orop", Or)

    def parse_and(self) -> Formula:
        return self._chain(self.parse_unit, "&", And)

    def _chain(self, operand, op: str, node) -> Formula:
        """operand (op operand)*, built right-nested."""
        first = operand()
        if self.tokens[self.i].kind != op:
            return first
        operands = [first]
        while self.tokens[self.i].kind == op:
            self.i += 1
            operands.append(operand())
        f = operands.pop()
        while operands:
            f = node(operands.pop(), f)
        return f

    def parse_unit(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.enter(tok)
            self.next()
            f = self.parse_formula()
            self.expect(")")
            self.depth -= 1
            return f
        if tok.kind in ("forall", "exists", "bowtie"):
            self.fail("quantified formula must be parenthesised here "
                      "(quantifiers bind weakest)", tok)
        if self.accept("bot"):
            return Bot(None)
        if tok.kind == "ident":
            if tok.text.startswith("bot_") and self.peek(1).kind != "(":
                self.next()
                return Bot(tok.text[len("bot_"):])
            if self.peek(1).kind == "(":
                self.next()
                self.next()
                args = [self.parse_term()]
                while self.accept(","):
                    args.append(self.parse_term())
                self.expect(")")
                return Atom(tok.text, tuple(args))
        return self.parse_relation()

    def parse_relation(self) -> Formula:
        term = self.parse_term()
        if self.accept("in"):
            return Member(term, self.parse_domain_ref())
        if self.accept("="):
            return Eq(term, self.parse_term())
        if self.accept("neq"):
            return Neq(term, self.parse_term())
        self.fail("expected 'in', '=' or '!=' after term, found "
                  f"{_shown(self.peek())!r}")

    # -- sequents ------------------------------------------------------------
    _ITEM_STOPPERS = frozenset({",", "comma_label", "turnstile", "eof"})

    def parse_item(self):
        tok = self.peek()
        if (tok.kind == "ident" and not tok.text.startswith("bot_")
                and self.peek(1).kind in self._ITEM_STOPPERS):
            self.next()
            return ContextVar(tok.text)
        return self.parse_formula()

    def parse_sequent(self) -> Sequent:
        antecedent = []
        if self.peek().kind != "turnstile":
            antecedent.append(self.parse_item())
            while self.accept(","):
                antecedent.append(self.parse_item())
        self.expect("turnstile")
        succedent = []
        if not self.at_end():
            succedent.append(self.parse_item())
            while True:
                tok = self.peek()
                if self.accept(","):
                    succedent.append(self.parse_item())
                elif tok.kind == "comma_label":
                    self.next()
                    label = tok.text[2:]
                    prev = succedent.pop()
                    nxt = self.parse_item()
                    if isinstance(prev, (ContextVar, Correlated)):
                        self.fail("left side of a correlated comma must be "
                                  "a formula", tok)
                    if not isinstance(nxt, Formula):
                        self.fail("right side of a correlated comma must be "
                                  "a formula", tok)
                    succedent.append(Correlated(label, prev, nxt))
                else:
                    break
        return Sequent(tuple(antecedent), tuple(succedent))


def _validate_names(s: Sequent, table: Optional[DomainTable],
                    predicates: Optional[dict]) -> None:
    if table is None and predicates is None:
        return
    for node in walk(s):
        if type(node) is Atom:
            if predicates is not None:
                arity = predicates.get(node.pred)
                if arity is None:
                    raise LookupFailure(f"unknown predicate symbol {node.pred}")
                if arity != len(node.args):
                    raise LookupFailure(
                        f"predicate {node.pred} declared with arity {arity}, "
                        f"used with {len(node.args)}")
        elif type(node) in _WITH_DOMAIN:
            if table is not None and node.domain not in table:
                raise LookupFailure(f"unknown domain {node.domain}")


def parse_sequent(text: str, table: Optional[DomainTable] = None,
                  predicates: Optional[dict] = None) -> Sequent:
    """Parse a sequent; optionally validate names against declarations."""
    p = _Parser(text)
    s = p.parse_sequent()
    p.finish()
    _validate_names(s, table, predicates)
    return s


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    f = p.parse_formula()
    p.finish()
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.parse_term()
    p.finish()
    return t
