"""Terms, formulas, sequents and domains.

Everything here is immutable after construction, so values can be shared
freely between threads.  Term equality identifies an outcome carrying
probability 1 with the sharp term of the same state label; all other
comparisons are structural.

The layout of every node class is spelled out once, in the ``_SHAPES``
table: the node's children in reading order, the node rebuilt from new
children, and its other fields that alpha-equivalence compares (a
binder's ``var`` is the one field handled outside the table).  Every
structural operation goes through it: ``children``, ``walk``,
``map_children``, ``rewrite``, ``free_vars``, ``bound_vars`` and
``alpha_eq`` here, and substitution and dualization, which are built on
``rewrite``.  Whatever walks a whole formula does so with an explicit
stack, so the depth of a formula costs it no recursion.  ``rewrite``
returns a node itself when every child comes back identical, so an
operation that changes nothing below a node keeps that subtree shared,
and ``alpha_eq`` answers ``a is b`` at once wherever no bound variable
is renamed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from ..errors import DomainError

# ---------------------------------------------------------------------------
# terms

class Term:
    """First-order term: variable, outcome pair, or sharp term."""

    __slots__ = ()

    def _key(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def __eq__(self, other):
        if not isinstance(other, Term):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False, repr=True)
class Var(Term):
    name: str

    def _key(self):
        return ("var", self.name)


@dataclass(frozen=True, eq=False, repr=True)
class Outcome(Term):
    """Outcome pair (state label, probability), probability in (0, 1]."""

    state: str
    prob: Fraction

    def __post_init__(self):
        p = self.prob
        if not isinstance(p, Fraction):
            p = Fraction(p)
            object.__setattr__(self, "prob", p)
        if not 0 < p <= 1:
            raise DomainError(f"outcome probability must be in (0, 1], got {p}")

    def _key(self):
        # <s, 1> and #s are interchangeable under term equality
        if self.prob == 1:
            return ("sharp", self.state)
        return ("outcome", self.state, self.prob)


@dataclass(frozen=True, eq=False, repr=True)
class Sharp(Term):
    """Outcome with the probability forgotten (reset to 1), written #s."""

    state: str

    def _key(self):
        return ("sharp", self.state)


def is_closed(t: Term) -> bool:
    return not isinstance(t, Var)


def term_prob(t: Term) -> Fraction:
    if isinstance(t, Outcome):
        return t.prob
    if isinstance(t, Sharp):
        return Fraction(1)
    raise DomainError(f"variable {t!r} carries no probability")


def term_state(t: Term) -> str:
    if isinstance(t, (Outcome, Sharp)):
        return t.state
    raise DomainError(f"variable {t!r} carries no state label")


# ---------------------------------------------------------------------------
# formulas

class _Syntax:
    """Structural ``==`` and ``hash`` of formulas, items and sequents, on
    an explicit stack: node classes, their ``_SHAPES`` heads and binder
    variables must agree, terms compare by term equality."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Syntax):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            ca = type(a)
            cb = type(b)
            if ca is not cb and not (ca in _CLOSED and cb in _CLOSED):
                return False
            head_a, kids_a = _SHAPES[ca][0](a)
            head_b, kids_b = _SHAPES[cb][0](b)
            if (head_a != head_b or len(kids_a) != len(kids_b)
                    or ca in BINDERS and a.var != b.var):
                return False
            stack.extend(zip(kids_a, kids_b))
        return True

    def __hash__(self):
        parts = []
        stack = [self]
        while stack:
            n = stack.pop()
            cls = type(n)
            head, kids = _SHAPES[cls][0](n)
            parts.append((None if cls in _CLOSED else cls, head,
                          n.var if cls in BINDERS else None, len(kids)))
            stack.extend(kids)
        return hash(tuple(parts))


class Formula(_Syntax):
    __slots__ = ()


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    pred: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True, eq=False)
class Member(Formula):
    term: Term
    domain: str


@dataclass(frozen=True, eq=False)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class Neq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Star(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Bot(Formula):
    """Falsum; the optional label names the incompatible observable's domain."""

    label: Optional[str] = None


@dataclass(frozen=True, eq=False)
class Forall(Formula):
    var: str
    domain: str
    body: Formula


@dataclass(frozen=True, eq=False)
class Exists(Formula):
    var: str
    domain: str
    body: Formula


@dataclass(frozen=True, eq=False)
class Bowtie(Formula):
    """Predicative binary connective internalising the correlated comma."""

    var: str
    domain: str
    left: Formula
    right: Formula


# ---------------------------------------------------------------------------
# sequents

@dataclass(frozen=True, eq=False)
class ContextVar(_Syntax):
    """Schematic context metavariable (G, G', Delta, ...)."""

    name: str


@dataclass(frozen=True, eq=False)
class Correlated(_Syntax):
    """Succedent slot A ,_S A': two formulas sharing one random variable."""

    label: str
    left: Formula
    right: Formula


Item = Union[Formula, ContextVar]
SuccItem = Union[Formula, ContextVar, Correlated]


@dataclass(frozen=True, eq=False)
class Sequent(_Syntax):
    antecedent: tuple
    succedent: tuple

    def __post_init__(self):
        object.__setattr__(self, "antecedent", tuple(self.antecedent))
        object.__setattr__(self, "succedent", tuple(self.succedent))
        for side in (self.antecedent, self.succedent):
            seen = set()
            for item in side:
                if isinstance(item, ContextVar):
                    if item.name in seen:
                        raise DomainError(
                            f"context variable {item.name} repeated on one side")
                    seen.add(item.name)


# ---------------------------------------------------------------------------
# the shape of each node class

def _pair(n):
    return None, (n.left, n.right)


def _closed_term(n):
    # compared by term equality, which identifies <s, 1> with #s
    return n, ()


def _body(n):
    return n.domain, (n.body,)


class _ShapeTable(dict):
    def __missing__(self, cls):
        raise TypeError(f"unsupported syntax node class {cls.__name__}")


#: node class -> (shape, rebuild).  ``shape(node)`` is ``(head, children)``:
#: head holds the fields besides the children that alpha-equivalence
#: compares, children are the sub-nodes in reading order.
#: ``rebuild(node, children)`` is a node of the row's class with the given
#: children and node's other fields; leaves have none.  A binder's ``var``
#: is the one field read outside this table.
_SHAPES = _ShapeTable({
    Var: (lambda n: (n.name, ()), None),
    Outcome: (_closed_term, None),
    Sharp: (_closed_term, None),
    Atom: (lambda n: (n.pred, n.args), lambda n, cs: Atom(n.pred, cs)),
    Member: (lambda n: (n.domain, (n.term,)),
             lambda n, cs: Member(cs[0], n.domain)),
    Eq: (_pair, lambda n, cs: Eq(*cs)),
    Neq: (_pair, lambda n, cs: Neq(*cs)),
    And: (_pair, lambda n, cs: And(*cs)),
    Or: (_pair, lambda n, cs: Or(*cs)),
    Star: (_pair, lambda n, cs: Star(*cs)),
    Bot: (lambda n: (n.label, ()), None),
    Forall: (_body, lambda n, cs: Forall(n.var, n.domain, *cs)),
    Exists: (_body, lambda n, cs: Exists(n.var, n.domain, *cs)),
    Bowtie: (lambda n: (n.domain, (n.left, n.right)),
             lambda n, cs: Bowtie(n.var, n.domain, *cs)),
    ContextVar: (lambda n: (n.name, ()), None),
    Correlated: (lambda n: (n.label, (n.left, n.right)),
                 lambda n, cs: Correlated(n.label, *cs)),
    Sequent: (lambda n: (len(n.antecedent), n.antecedent + n.succedent),
              lambda n, cs: Sequent(cs[:len(n.antecedent)],
                                    cs[len(n.antecedent):])),
})

#: classes whose ``var`` binds in all of their children; each is built as
#: ``cls(var, domain, *children)``
BINDERS = frozenset({Forall, Exists, Bowtie})

# outcome and sharp terms compare across the two classes
_CLOSED = frozenset({Outcome, Sharp})


def children(node) -> tuple:
    """The sub-nodes of a node in reading order (terms included)."""
    return _SHAPES[type(node)][0](node)[1]


def rebuild(node, kids, cls=None):
    """``node`` with its children replaced by ``kids``; built as ``cls``
    instead of node's own class when given, which must share its layout
    (``And``/``Or``, ``Forall``/``Exists``, ``Eq``/``Neq``)."""
    return _SHAPES[cls or type(node)][1](node, tuple(kids))


def map_children(node, fn):
    """``node`` with ``fn`` applied to each child, rebuilt as ``rewrite``
    rebuilds it."""
    return rewrite(node, lambda n, top: (n, False) if top else (fn(n), None),
                   True)


def rewrite(node, enter, ctx=()):
    """``node`` rebuilt bottom-up with an explicit stack.

    ``enter(n, ctx)`` sees every node reached, in reading order, a node
    before its children.  It returns ``(m, None)`` to put ``m`` in the
    place of ``n`` as it is, or ``(m, inner)`` to rebuild ``m`` from its
    children, each entered with the context ``inner``.  A rebuilt node
    whose children all come back identical is ``m`` itself, so unchanged
    subtrees stay shared.
    """
    done = []
    stack = [(node, ctx, None)]
    pop = stack.pop
    push = stack.append
    while stack:
        n, inner, kids = pop()
        if kids is None:
            n, inner = enter(n, inner)
            kids = () if inner is None else _SHAPES[type(n)][0](n)[1]
            if not kids:
                done.append(n)
                continue
            push((n, None, kids))
            for k in reversed(kids):
                push((k, inner, None))
        else:
            new = done[-len(kids):]
            del done[-len(kids):]
            for old, cur in zip(kids, new):
                if old is not cur:
                    n = _SHAPES[type(n)][1](n, tuple(new))
                    break
            done.append(n)
    return done[0]


def walk(node):
    """Every node below ``node``, itself first, in reading order."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        stack.extend(reversed(children(n)))


# ---------------------------------------------------------------------------
# free and bound variables

def free_vars(node) -> frozenset:
    """Free first-order variable names of a term/formula/item/sequent.

    Context metavariables contribute nothing: by convention the contexts
    they stand for do not depend on the instantiated variables.
    """
    acc = set()
    bound = {}  # name -> number of enclosing binders of that name
    stack = [node]
    while stack:
        n = stack.pop()
        cls = type(n)
        if cls is Var:
            if not bound.get(n.name):
                acc.add(n.name)
        elif cls is str:
            # a binder's var: the scope it opened is done
            bound[n] -= 1
        else:
            kids = _SHAPES[cls][0](n)[1]
            if cls in BINDERS:
                bound[n.var] = bound.get(n.var, 0) + 1
                stack.append(n.var)
            stack.extend(kids)
    return frozenset(acc)


def bound_vars(node) -> frozenset:
    return frozenset(n.var for n in walk(node) if type(n) in BINDERS)


# ---------------------------------------------------------------------------
# alpha equivalence

def alpha_eq(a, b) -> bool:
    """Structural equality up to renaming of bound variables.

    A pair is compared under the renaming that its enclosing binders set
    up, or under none (``None``) while every binder pair so far bound the
    same name, which renames nothing.  Only under no renaming does one
    shared object compare equal to itself without a look inside:
    ``forall x in D . A(x)`` and ``forall y in D . A(x)`` can share the
    very same ``A(x)``.
    """
    stack = [(a, b, None)]
    pop = stack.pop
    push = stack.append
    while stack:
        a, b, env = pop()
        if a is b and env is None:
            continue
        ca = type(a)
        cb = type(b)
        if ca is Var or cb is Var:
            if ca is not cb:
                return False
            x = a.name
            y = b.name
            if env is not None and (x in env[0] or y in env[1]):
                if env[0].get(x) != y or env[1].get(y) != x:
                    return False
            elif x != y:
                return False
            continue
        if ca is not cb and not (ca in _CLOSED and cb in _CLOSED):
            return False
        head_a, kids_a = _SHAPES[ca][0](a)
        head_b, kids_b = _SHAPES[cb][0](b)
        if head_a != head_b or len(kids_a) != len(kids_b):
            return False
        if ca in BINDERS and (env is not None or a.var != b.var):
            ab, ba = ({}, {}) if env is None else (dict(env[0]), dict(env[1]))
            ab[a.var] = b.var
            ba[b.var] = a.var
            env = (ab, ba)
        for x, y in zip(kids_a, kids_b):
            if x is not y or env is not None:
                push((x, y, env))
    return True


def alpha_eq_all(xs: Iterable, ys: Iterable) -> bool:
    xs = list(xs)
    ys = list(ys)
    return len(xs) == len(ys) and all(alpha_eq(x, y) for x, y in zip(xs, ys))


# ---------------------------------------------------------------------------
# domains

DOMAIN_KINDS = ("measured", "uniform", "singleton")


def domain_kind(probs) -> str:
    """Kind of the domain whose outcomes carry these probabilities."""
    if len(probs) == 1:
        return "singleton"
    if len(set(probs)) == 1:
        return "uniform"
    return "measured"


@dataclass(frozen=True)
class Domain:
    """Named random first-order domain: outcome terms plus focus status."""

    name: str
    elements: tuple
    focused: bool = False
    kind: str = "measured"

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.kind not in DOMAIN_KINDS:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        if not self.elements:
            raise DomainError(f"domain {self.name} has no elements")
        labels = []
        probs = []
        for e in self.elements:
            if not isinstance(e, (Outcome, Sharp)):
                raise DomainError(
                    f"domain {self.name}: element {e!r} is not an outcome term")
            labels.append(term_state(e))
            probs.append(term_prob(e))
        if len(set(labels)) != len(labels):
            raise DomainError(f"domain {self.name}: state labels not distinct")
        total = sum(probs, Fraction(0))
        if total != 1:
            raise DomainError(
                f"domain {self.name}: probabilities sum to {total}, not 1")
        if self.kind == "singleton":
            if len(self.elements) != 1 or probs[0] != 1:
                raise DomainError(
                    f"domain {self.name}: singleton must hold one element of probability 1")
        if self.kind == "uniform" and len(set(probs)) != 1:
            raise DomainError(
                f"domain {self.name}: uniform kind requires equal probabilities")
        if is_singleton_literal(self.name) and labels != [self.name[1:-1]]:
            raise DomainError(f"domain {self.name}: a singleton literal name "
                              f"holds exactly {{ #{self.name[1:-1]} }}")

    @property
    def labels(self) -> tuple:
        return tuple(term_state(e) for e in self.elements)

    @property
    def probs(self) -> tuple:
        return tuple(term_prob(e) for e in self.elements)


def singleton_literal_name(label: str) -> str:
    return "{" + label + "}"


def is_singleton_literal(name: str) -> bool:
    return name.startswith("{") and name.endswith("}") and len(name) > 2


def sharp_domain_name(name: str) -> str:
    """Name of the sharp companion set; idempotent on already-sharp sets."""
    if is_singleton_literal(name) or name.endswith("^f"):
        return name
    return name + "^f"


def sharp_pred_name(pred: str) -> str:
    return pred if pred.endswith("^f") else pred + "^f"


class DomainTable:
    """Declaration context mapping domain names to domains.

    Singleton literals like ``{u}`` resolve implicitly; sharp companion
    names ``D^f`` are name-level only (they carry no probability mass)
    and are answered via :meth:`sharp_labels`.
    """

    def __init__(self, domains: Iterable = ()):
        self._by_name = {}
        for d in domains:
            self.register(d)

    def register(self, domain: Domain) -> Domain:
        existing = self._by_name.get(domain.name)
        if existing is not None and existing != domain:
            raise DomainError(f"domain {domain.name} already declared differently")
        self._by_name[domain.name] = domain
        return domain

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
            return True
        except DomainError:
            return False

    def resolve(self, name: str) -> Domain:
        if name in self._by_name:
            return self._by_name[name]
        if is_singleton_literal(name):
            # focus of a singleton comes from the singleton axiom, not a flag
            return Domain(name, (Sharp(name[1:-1]),), kind="singleton")
        raise DomainError(f"unknown domain {name}")

    def sharp_labels(self, sharp_name: str):
        """State labels of a sharp companion set: D^f, or {u}, its own."""
        if sharp_name.endswith("^f"):
            return self.resolve(sharp_name[:-2]).labels
        if not is_singleton_literal(sharp_name):
            raise DomainError(f"{sharp_name} is not a sharp companion set")
        return self.resolve(sharp_name).labels

    def domains(self):
        return tuple(self._by_name[n] for n in sorted(self._by_name))
