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

The lexer is one scan over one pattern, from a given line and offset, so
a line of a larger file keeps its real positions.  A proof script reads a
step header with patterns of its own, and starts a parser where a value or
the conclusion starts.  An outcome term written on one line, ``<t, 1/2>``,
is a single ``outcome`` lexeme, and equal lexemes share one ``Outcome``
object.  A chain of ``&``, ``\\/`` and ``*`` is read in one loop, a unit at
a time, and grouped by precedence, right-nested: an operator closes the
runs of tighter operators before it, and the chain's end closes them all.
So a lone unit returns at once, and a chain's length costs no recursion.

A proof script repeats its formulas from line to line, so one
``parse_script`` call reads its lines with one memo, which lives as long
as that call.  The memo maps the source text of every top-level formula
(a sequent item or a parameter value) and of every suffix of an ``&``,
``\\/`` or ``*`` chain at any depth, read so far and at least ``_HEAD``
characters long, to the node built for it; it holds the text's place in
its line, not a copy.  A run's suffixes are kept when the run closes,
so the memo holds the same spans, in the same order, as a reading with one
parse per operator level.  The memo is read only where a top-level formula
starts.  A text it holds is taken there, neither lexed nor parsed again,
and the very node is returned, only where the plain parse would read the
same span to the same node:

- the text stands at the start of a token, and its last character does
  not run on into the next one (``x`` then ``'``);
- the token after it ends a formula: ``,``, ``,_L``, ``|-``, ``)``,
  ``;``, ``"`` or the end of the line.

No nesting test is needed: a text is kept only after the plain parse
read it, token by token and within ``MAX_NESTING`` where it stood, so it
nests no deeper than the limit allows at the top level.

A text is lexed only as far as the parse reads it.  Before any error is
raised the rest of the text is lexed, so a bad character anywhere in it
is reported first, as when the whole text is lexed before the parse.
"""
from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from ..errors import DomainError, DslSyntaxError, LookupFailure, RfodError
from .ast import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, DomainTable, Eq, Exists,
    Forall, Formula, Member, Neq, Or, Outcome, Sequent, Sharp, Star, Term, Var,
    walk,
)

_IDENT = r"[A-Za-z_][A-Za-z0-9_'^]*"
_KEYWORDS = frozenset({"forall", "exists", "bowtie", "in", "bot"})
_IDENT_RE = re.compile(_IDENT)
#: an identifier that is not a keyword
_WORD = r"(?!(?:%s)(?![A-Za-z0-9_'^]))%s" % ("|".join(sorted(_KEYWORDS)),
                                             _IDENT)
_WITH_DOMAIN = frozenset({Member, Forall, Exists, Bowtie})
_BINDERS = {"forall": Forall, "exists": Exists, "bowtie": Bowtie}
#: the chain operators, tightest first, and the node each joins with; any
#: other token is level 3 and ends the chain
_LEVELS = {"&": 0, "orop": 1, "*": 2}
_JOINS = (And, Or, Star)
# Each parenthesis costs the parser three stack frames, a binder one; a
# text nested deeper is refused at the token that opens the extra level,
# well inside the interpreter's default recursion limit.
MAX_NESTING = 100
# An outcome lexeme matches only what the token-by-token reading of '<'
# would accept: the state is not a keyword, the rational is the one token
# the lexer would cut there, and its denominator is not zero.
_OUTCOME = (r"<[ \t\r]*%s[ \t\r]*,[ \t\r]*"
            r"(?:\d*\.\d+|\d+(?:/0*[1-9]\d*)?)[ \t\r]*>" % _WORD)

_TOKEN_RE = re.compile(r"""[ \t\r]*(?:
    (?P<comment>--[^\n]*)
  | (?P<newline>\n)
  | (?P<outcome>%s)
  | (?P<turnstile>\|-)
  | (?P<orop>\\/)
  | (?P<comma_label>,_%s)
  | (?P<rational>\d*\.\d+|\d+(?:/\d+)?)
  | (?P<ident>%s)
  | (?P<neq>!=)
  | (?P<punct>::|[,.;()<>{}#&*=/"])
  | (?P<error>[^ \t\r])
)""" % (_OUTCOME, _IDENT, _IDENT), re.VERBOSE)


Token = namedtuple("Token", ("kind", "text", "line", "column"))
_token = tuple.__new__  # a Token built without namedtuple's Python __new__


def _lexemes(text: str, line: int = 1, pos: int = 0):
    """The tokens of ``text`` from offset ``pos`` on, ending in ``eof``."""
    line_start = 0
    for m in _TOKEN_RE.finditer(text, pos):
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
        yield _token(Token, (kind, value, line, col))
    yield _token(Token, ("eof", "", line, len(text) - line_start + 1))


def tokenize(text: str, line: int = 1) -> list:
    return list(_lexemes(text, line))


#: the shortest text the memo keeps, and the length of its keys
_HEAD = 12
#: the most texts the memo keeps under one key: the first ones read, the
#: shortest suffixes of a chain before its longer ones, so that a chain
#: repeating one operand does not make every look-up compare long texts
_BUCKET = 4
_IDENT_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                         "0123456789_'^")
_ITEM_ENDS = frozenset({",", "comma_label", "turnstile", "eof"})
#: the tokens that may follow a text taken from the memo
_ENDS = _ITEM_ENDS | {")", ";", '"'}


def name_fault(text: str, label: bool = False) -> str | None:
    """Why ``text`` cannot be a name, or None when it can.

    A name (of a domain, predicate, context or basis) is an identifier
    that is not a keyword and does not end in ``^f``, the mark of a sharp
    companion set (``D^f``) and of a forgetful predicate (``A^f``).  A state
    ``label`` may end in ``^f``: ``<s^f, 1/2>`` and ``#s^f`` read back.
    """
    if text in _KEYWORDS or not _IDENT_RE.fullmatch(text):
        return "must be an identifier and not a keyword"
    if not label and text.endswith("^f"):
        return "must not end in ^f, which names a sharp companion set"
    return None


def _longest_first(entry) -> int:
    return entry[1] - entry[2]


@lru_cache(maxsize=4096)
def _outcome(lexeme: str) -> Outcome:
    state, _, prob = lexeme[1:-1].partition(",")
    return Outcome(state.strip(), Fraction(prob.strip()))


def _shown(tok: Token) -> str:
    # an outcome lexeme is quoted by its '<', the token an error in the
    # token-by-token reading of the same text would quote
    return "<" if tok.kind == "outcome" else tok.text


class _Parser:
    """One parse over ``text`` from offset ``pos``, lexed a token at a time,
    as far as the parse reads it.  With a memo (a dict that one
    ``parse_script`` call shares between its lines) the text must be one
    line.  The memo is read only by ``parse_formula`` at depth 0, where a
    sequent item or a parameter value starts, and a text it holds there is
    taken, never lexed, when one of ``_ENDS`` follows it.  That text was
    read within ``MAX_NESTING`` where it was kept, so it needs no nesting
    test."""

    def __init__(self, text: str, line: int = 1, memo: dict | None = None,
                 pos: int = 0):
        self.text = text
        self.line = line
        self.memo = memo
        self._lexer = _lexemes(text, line, pos)
        self.tokens = [next(self._lexer)]
        self.i = 0
        self.depth = 0        # open parentheses and binders
        self._kept = None     # the span last kept or taken from the memo

    def read(self, rule):
        """What ``rule()`` reads, which must be the whole text."""
        try:
            node = rule()
            self.finish()
        except RfodError:
            self.drain()
            raise
        return node

    # -- token plumbing ----------------------------------------------------
    # tokens[i] always exists: stepping past it lexes the next one

    def _advance(self) -> None:
        self.i += 1
        if self.i == len(self.tokens):
            self.tokens.append(next(self._lexer))

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self._advance()
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.i]
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {_shown(tok)!r}", tok)
        self._advance()
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.tokens[self.i]
        raise DslSyntaxError(message, tok.line, tok.column)

    def accept(self, kind: str) -> bool:
        if self.tokens[self.i].kind != kind:
            return False
        self._advance()
        return True

    def at_end(self) -> bool:
        return self.tokens[self.i].kind == "eof"

    def finish(self) -> None:
        if not self.at_end():
            self.fail(f"trailing input {_shown(self.tokens[self.i])!r}")

    def drain(self) -> None:
        """Lex the rest of the text, so that a bad character anywhere in it
        is reported before an error of the parse or of the line."""
        self.tokens.extend(self._lexer)

    def _end(self) -> int:
        """The offset just after the last token read."""
        tok = self.tokens[self.i - 1]
        return tok.column - 1 + len(tok.text)

    # -- the memo ------------------------------------------------------------
    # Its keys are the first _HEAD characters of a text read before, its
    # values the texts' spans, longest first: (line, start, end, node).

    def _recall(self, pos: int):
        """The node the memo holds for the text at offset ``pos``, the
        current token, if the plain reading of this text is that very node.
        The parse then goes on after that text, which is never lexed."""
        hit = self._match(pos)
        if hit is None:
            return None
        node, stop, lexer, follow = hit
        del self.tokens[self.i:]
        self.tokens.append(follow)
        self._lexer = lexer
        self._kept = (pos, stop)
        return node

    def _match(self, pos: int):
        """(node, end, lexer, token after it) of the longest text of the
        memo standing at ``pos`` whose last character does not run on into
        the next one, so that lexing from ``pos`` cuts it as before, and
        that a token of ``_ENDS`` follows; None if there is none."""
        text = self.text
        for src, start, end, node in self.memo.get(text[pos:pos + _HEAD], ()):
            stop = pos + end - start
            if (stop <= len(text) and text.startswith(src[start:end], pos)
                    and not (text[stop - 1] in _IDENT_CHARS
                             and text[stop:stop + 1] in _IDENT_CHARS)):
                lexer = _lexemes(text, self.line, stop)
                follow = next(lexer)
                if follow.kind in _ENDS:
                    return node, stop, lexer, follow
        return None

    def _remember(self, start: int, end: int, node) -> None:
        """Keep ``node`` as the reading of the text from ``start`` to
        ``end``."""
        if (self.memo is None or end - start < _HEAD
                or (start, end) == self._kept):
            return
        self._kept = (start, end)
        bucket = self.memo.setdefault(self.text[start:start + _HEAD], [])
        if len(bucket) < _BUCKET:
            bucket.append((self.text, start, end, node))
            bucket.sort(key=_longest_first)

    # -- terms and domain references ---------------------------------------
    def parse_term(self) -> Term:
        tok = self.tokens[self.i]
        kind = tok.kind
        if kind == "ident":
            self._advance()
            return Var(tok.text)
        try:
            if kind == "outcome":
                self._advance()
                return _outcome(tok.text)
            if kind == "<":
                # reached only by an outcome term that is not one lexeme:
                # one spread over lines or comments, or a malformed one,
                # whose error this reading places at its failing token
                self._advance()
                state = self.expect("ident").text
                self.expect(",")
                prob = self.parse_rational()
                self.expect(">")
                return Outcome(state, prob)
        except DomainError as exc:
            # a probability out of range, placed at the term
            self.fail(str(exc), tok)
        if kind == "#":
            self._advance()
            return Sharp(self.expect("ident").text)
        self.fail(f"expected a term, found {_shown(tok)!r}", tok)

    def parse_rational(self) -> Fraction:
        tok = self.expect("rational")
        try:
            return Fraction(tok.text)
        except (ValueError, ZeroDivisionError):
            self.fail(f"bad rational literal {tok.text!r}", tok)

    def parse_domain_ref(self) -> str:
        tok = self.tokens[self.i]
        if tok.kind == "ident":
            self._advance()
            return tok.text
        if tok.kind == "{":
            self._advance()
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
        """A formula; at depth 0 it is taken from the memo or kept in it."""
        if self.depth or self.memo is None:
            return self._formula()
        start = self.tokens[self.i].column - 1
        node = self._recall(start)
        if node is None:
            node = self._formula()
            self._remember(start, self._end(), node)
        return node

    def _formula(self) -> Formula:
        tok = self.tokens[self.i]
        kind = tok.kind
        if kind not in _BINDERS:
            return self._chain()
        self.enter(tok)
        self._advance()
        var = self.expect("ident").text
        self.expect("in")
        dom = self.parse_domain_ref()
        if kind == "bowtie":
            self.expect("(")
            left = self._formula()
            self.expect(";")
            node = Bowtie(var, dom, left, self._formula())
            self.expect(")")
        else:
            self.expect(".")
            node = _BINDERS[kind](var, dom, self._formula())
        self.depth -= 1
        return node

    def _chain(self) -> Formula:
        """Units separated by ``&``, ``\\/`` and ``*``, in one loop; each
        run of an operator waits in ``runs`` at its level as (start, node)
        pairs until a looser operator or the chain's end closes it."""
        tokens = self.tokens
        start = tokens[self.i].column - 1
        node = self.parse_unit()
        level = _LEVELS.get(tokens[self.i].kind, 3)
        if level == 3:
            return node
        runs = ([], [], [])
        while True:
            item = (start, node)
            if level:
                end = self._end()
                for k in range(level):
                    runs[k].append(item)
                    item = self._group(runs[k], _JOINS[k], end)
                if level == 3:
                    return item[1]
            runs[level].append(item)
            self._advance()
            start = tokens[self.i].column - 1
            node = self.parse_unit()
            level = _LEVELS.get(tokens[self.i].kind, 3)

    def _group(self, run: list, join, end: int) -> tuple:
        """(start, node) of ``run`` emptied and joined right-nested by
        ``join``; with two operands or more, each suffix is kept."""
        start, rest = run.pop()
        if run:
            self._remember(start, end, rest)
            while run:
                start, left = run.pop()
                rest = join(left, rest)
                self._remember(start, end, rest)
        return start, rest

    def parse_unit(self) -> Formula:
        tokens = self.tokens
        tok = tokens[self.i]
        kind = tok.kind
        if kind == "ident":
            self._advance()
            if tokens[self.i].kind == "(":
                self._advance()
                args = [self.parse_term()]
                while tokens[self.i].kind == ",":
                    self._advance()
                    args.append(self.parse_term())
                self.expect(")")
                return Atom(tok.text, tuple(args))
            if tok.text.startswith("bot_"):
                return Bot(tok.text[len("bot_"):])
            return self.parse_relation(Var(tok.text))
        if kind == "(":
            self.enter(tok)
            self._advance()
            f = self._formula()
            self.expect(")")
            self.depth -= 1
            return f
        if kind == "bot":
            self._advance()
            return Bot(None)
        if kind in _BINDERS:
            self.fail("quantified formula must be parenthesised here "
                      "(quantifiers bind weakest)", tok)
        return self.parse_relation(self.parse_term())

    def parse_relation(self, term: Term) -> Formula:
        """The rest of a relation whose left ``term`` was read."""
        tok = self.tokens[self.i]
        if tok.kind == "in":
            self._advance()
            return Member(term, self.parse_domain_ref())
        if tok.kind in ("=", "neq"):
            self._advance()
            return (Eq if tok.kind == "=" else Neq)(term, self.parse_term())
        self.fail("expected 'in', '=' or '!=' after term, found "
                  f"{_shown(tok)!r}")

    # -- sequents ------------------------------------------------------------
    def parse_item(self):
        tok = self.tokens[self.i]
        if tok.kind == "ident" and not tok.text.startswith("bot_"):
            self._advance()
            if self.tokens[self.i].kind in _ITEM_ENDS:
                return ContextVar(tok.text)
            self.i -= 1  # the identifier starts a formula
        return self.parse_formula()

    def parse_sequent(self) -> Sequent:
        tokens = self.tokens
        antecedent = []
        if tokens[self.i].kind != "turnstile":
            antecedent.append(self.parse_item())
            while tokens[self.i].kind == ",":
                self._advance()
                antecedent.append(self.parse_item())
        self.expect("turnstile")
        succedent = []
        if tokens[self.i].kind != "eof":
            succedent.append(self.parse_item())
            while tokens[self.i].kind in (",", "comma_label"):
                tok = tokens[self.i]
                self._advance()
                nxt = self.parse_item()
                if tok.kind == ",":
                    succedent.append(nxt)
                    continue
                prev = succedent.pop()
                if isinstance(prev, (ContextVar, Correlated)):
                    self.fail("left side of a correlated comma must be "
                              "a formula", tok)
                if not isinstance(nxt, Formula):
                    self.fail("right side of a correlated comma must be "
                              "a formula", tok)
                succedent.append(Correlated(tok.text[2:], prev, nxt))
        return Sequent(tuple(antecedent), tuple(succedent))


def _validate_names(s: Sequent, table: DomainTable | None,
                    predicates: dict | None) -> None:
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


def parse_sequent(text: str, table: DomainTable | None = None,
                  predicates: dict | None = None) -> Sequent:
    """Parse a sequent; optionally validate names against declarations."""
    p = _Parser(text)
    s = p.read(p.parse_sequent)
    _validate_names(s, table, predicates)
    return s


def parse_formula(text: str) -> Formula:
    p = _Parser(text)
    return p.read(p.parse_formula)


def parse_term(text: str) -> Term:
    p = _Parser(text)
    return p.read(p.parse_term)
