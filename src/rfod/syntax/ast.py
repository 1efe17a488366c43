"""Terms, formulas, sequents and domains.

Everything here is immutable after construction, so values can be shared
freely between threads.  A term, formula, item, sequent or domain keeps
its fields in ``__slots__``: its ``__init__`` writes each field through
the slot's descriptor, and ``__setattr__`` and ``__delattr__`` raise
``AttributeError`` (``_Frozen``, which the kernel's other immutable
records share).  Term equality
identifies an outcome carrying probability 1 with the sharp term of the
same state label; all other comparisons are structural.

The layout of every node class is spelled out once, in the ``_SHAPES``
table: the node's children in reading order, the node rebuilt from new
children, and its other fields that alpha-equivalence compares (a
binder's ``var`` is the one field handled outside the table).  Every
structural operation rides one of three loops over it, each on an
explicit stack, so the depth of a formula costs none of them recursion:
- ``walk`` yields every node in reading order: ``bound_vars``, ``hash``;
- ``rewrite`` rebuilds a node bottom-up under a context it threads down:
  substitution and occurrence replacement (``subst``), dualization
  (``calculus.rules``);
- the pairwise loop of ``alpha_eq`` compares two nodes: ``alpha_eq``
  itself and, with renaming off, structural ``==``.
The free variable names of a node are computed once, on a stack of
their own, and cached on it (``_free``), so substitution skips a subtree
without free occurrences at once.
``rewrite`` returns a node itself when every child comes back identical,
so an operation that changes nothing below a node keeps that subtree
shared.  ``alpha_eq`` answers ``a is b`` at once wherever no bound variable
is renamed, and two sequents with ``==`` items at once.  The ``repr`` of a
formula, item or sequent is its canonical text, printed without recursion.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from ..errors import DomainError

# ---------------------------------------------------------------------------
# records

class _Record:
    """A record's fields are the ``__slots__`` of its class and bases, which
    its ``__init__`` takes in that order: the repr names them,
    ``Name(field=value, ...)``, and ``==`` compares them between records of
    one class.  A slot whose name starts with ``_`` is a hidden cache, not
    a field.  A record can be changed, so it has no hash."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(f for c in reversed(type(self).__mro__)
                     for f in c.__dict__.get("__slots__", ()) if f[0] != "_")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields()))


class _Frozen(_Record):
    """A record that cannot change after ``__init__``, which writes each
    field through its slot's descriptor (``object.__setattr__`` or a
    setter from ``_setters``): assigning or deleting an attribute raises
    ``AttributeError``.  It hashes by its fields, and copy and pickle
    rebuild it through ``__init__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()


def _setters(cls) -> tuple:
    """The ``__set__`` of each slot descriptor of ``cls``, in ``__slots__``
    order: the fastest write of a field that ``_Frozen`` refuses to set."""
    return tuple(getattr(cls, f).__set__ for f in cls.__slots__)


# ---------------------------------------------------------------------------
# terms

class Term(_Frozen):
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


class Var(Term):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_var_name(self, name)

    def _key(self):
        return ("var", self.name)


class Outcome(Term):
    """Outcome pair (state label, probability), probability in (0, 1]."""

    __slots__ = ("state", "prob")

    def __init__(self, state: str, prob: Fraction):
        if not isinstance(prob, Fraction):
            prob = Fraction(prob)
        if not 0 < prob.numerator <= prob.denominator:
            raise DomainError(
                f"outcome probability must be in (0, 1], got {prob}")
        _set_outcome_state(self, state)
        _set_outcome_prob(self, prob)

    def _key(self):
        # <s, 1> and #s are interchangeable under term equality
        if self.prob == 1:
            return ("sharp", self.state)
        return ("outcome", self.state, self.prob)


class Sharp(Term):
    """Outcome with the probability forgotten (reset to 1), written #s."""

    __slots__ = ("state",)

    def __init__(self, state: str):
        _set_sharp_state(self, state)

    def _key(self):
        return ("sharp", self.state)


# the setters each __init__ above writes its fields with
_set_var_name, = _setters(Var)
_set_outcome_state, _set_outcome_prob = _setters(Outcome)
_set_sharp_state, = _setters(Sharp)


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

class _Syntax(_Frozen):
    """Formulas, items and sequents: ``==``, hash and repr, none recursive.
    ``_var_cache`` holds the free names ``_free`` computed, once it has."""

    __slots__ = ("_var_cache",)

    def __hash__(self):
        return hash(tuple(map(_node_key, walk(self))))

    def __repr__(self):
        from .printer import render
        return f"{type(self).__name__}({render(self)!r})"


class Formula(_Syntax):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple):
        _set_atom_pred(self, pred)
        _set_atom_args(self, tuple(args))


class Member(Formula):
    __slots__ = ("term", "domain")

    def __init__(self, term: Term, domain: str):
        _set_member_term(self, term)
        _set_member_domain(self, domain)


class _Pair(Formula):
    """The layout of the binary formulas: two terms or two formulas."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set_pair_left(self, left)
        _set_pair_right(self, right)


class Eq(_Pair):
    __slots__ = ()


class Neq(_Pair):
    __slots__ = ()


class And(_Pair):
    __slots__ = ()


class Or(_Pair):
    __slots__ = ()


class Star(_Pair):
    __slots__ = ()


class Bot(Formula):
    """Falsum; the optional label names the incompatible observable's domain."""

    __slots__ = ("label",)

    def __init__(self, label: Optional[str] = None):
        _set_bot_label(self, label)


class _Quantifier(Formula):
    """The layout of ``Forall`` and ``Exists``."""

    __slots__ = ("var", "domain", "body")

    def __init__(self, var: str, domain: str, body: Formula):
        _set_quantifier_var(self, var)
        _set_quantifier_domain(self, domain)
        _set_quantifier_body(self, body)


class Forall(_Quantifier):
    __slots__ = ()


class Exists(_Quantifier):
    __slots__ = ()


class Bowtie(Formula):
    """Predicative binary connective internalising the correlated comma."""

    __slots__ = ("var", "domain", "left", "right")

    def __init__(self, var: str, domain: str, left: Formula, right: Formula):
        _set_bowtie_var(self, var)
        _set_bowtie_domain(self, domain)
        _set_bowtie_left(self, left)
        _set_bowtie_right(self, right)


# the setters each __init__ above writes its fields with
_set_atom_pred, _set_atom_args = _setters(Atom)
_set_member_term, _set_member_domain = _setters(Member)
_set_pair_left, _set_pair_right = _setters(_Pair)
_set_bot_label, = _setters(Bot)
(_set_quantifier_var, _set_quantifier_domain,
 _set_quantifier_body) = _setters(_Quantifier)
(_set_bowtie_var, _set_bowtie_domain, _set_bowtie_left,
 _set_bowtie_right) = _setters(Bowtie)


# ---------------------------------------------------------------------------
# sequents

class ContextVar(_Syntax):
    """Schematic context metavariable (G, G', Delta, ...)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_context_name(self, name)


class Correlated(_Syntax):
    """Succedent slot A ,_S A': two formulas sharing one random variable."""

    __slots__ = ("label", "left", "right")

    def __init__(self, label: str, left: Formula, right: Formula):
        _set_correlated_label(self, label)
        _set_correlated_left(self, left)
        _set_correlated_right(self, right)


class Sequent(_Syntax):
    __slots__ = ("antecedent", "succedent")

    def __init__(self, antecedent: tuple, succedent: tuple):
        antecedent = tuple(antecedent)
        succedent = tuple(succedent)
        for side in (antecedent, succedent):
            seen = set()
            for item in side:
                if isinstance(item, ContextVar):
                    if item.name in seen:
                        raise DomainError(
                            f"context variable {item.name} repeated on one side")
                    seen.add(item.name)
        _set_sequent_antecedent(self, antecedent)
        _set_sequent_succedent(self, succedent)


# the setters each __init__ above writes its fields with
_set_context_name, = _setters(ContextVar)
(_set_correlated_label, _set_correlated_left,
 _set_correlated_right) = _setters(Correlated)
_set_sequent_antecedent, _set_sequent_succedent = _setters(Sequent)


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

# the connectives whose nested uses read as one chain of operands
_CHAINS = frozenset({And, Or, Star})

# the nodes whose children are all terms
_OVER_TERMS = frozenset({Atom, Member, Eq, Neq, Bot, ContextVar})


def children(node) -> tuple:
    """The sub-nodes of a node in reading order (terms included)."""
    return _SHAPES[type(node)][0](node)[1]


def rebuild(node, kids, cls=None):
    """``node`` with its children replaced by ``kids``; built as ``cls``
    instead of node's own class when given, which must share its layout
    (``And``/``Or``, ``Forall``/``Exists``, ``Eq``/``Neq``)."""
    return _SHAPES[cls or type(node)][1](node, tuple(kids))


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


def _node_key(n):  # what == compares at a node; outcome and sharp as one
    cls = type(n)
    head, kids = _SHAPES[cls][0](n)
    return (None if cls in _CLOSED else cls, head,
            n.var if cls in BINDERS else None, len(kids))


# ---------------------------------------------------------------------------
# free and bound variables

_NO_NAMES = frozenset()
_set_var_cache = _Syntax._var_cache.__set__


def _free(node) -> frozenset:
    """The variable names free in ``node``, cached in the hidden
    ``_var_cache`` slot that ``==``, hash, repr, copy and pickle ignore,
    on ``node`` and on every formula, item and sequent below it but two
    kinds, which their parent reads in place: a node over terms only (an
    atom, a membership, an equality), and a link inside an ``&``, ``\\/``
    or ``*`` chain, so that a chain of n distinct atoms keeps one set
    instead of n growing ones.  A node with one cached child and no names
    of its own shares that child's set.  The first call fills the cache
    bottom-up on an explicit stack, where a node waits under those of its
    children not filled yet.
    """
    cls = type(node)
    if cls is Var:
        return frozenset((node.name,))
    if cls in _CLOSED:
        return _NO_NAMES
    free = getattr(node, "_var_cache", None)
    if free is not None:
        return free
    stack = [node]
    push = stack.append
    shapes = _SHAPES
    while stack:
        n = stack[-1]
        cls = type(n)
        units = shapes[cls][0](n)[1]
        if cls in _CHAINS:  # n's operands, its chain's links opened up
            links = list(units)
            units = []
            while links:
                k = links.pop()
                if type(k) is cls:
                    links.extend(shapes[cls][0](k)[1])
                else:
                    units.append(k)
        below = []
        names = []
        depth = len(stack)
        for k in units:
            ck = type(k)
            if ck is Var:
                names.append(k.name)
            elif ck in _OVER_TERMS:  # read in place, not cached
                for t in shapes[ck][0](k)[1]:
                    if type(t) is Var:
                        names.append(t.name)
            elif ck not in _CLOSED:
                free = getattr(k, "_var_cache", None)
                if free is None:
                    push(k)
                else:
                    below.append(free)
        if len(stack) > depth:
            continue  # fill the children first, then come back
        stack.pop()
        if not below:  # terms only, the common case
            free = frozenset(names) if names else _NO_NAMES
        elif len(below) == 1 and not names:
            free = below[0]
        else:
            free = frozenset(names).union(*below)
        if cls in BINDERS and n.var in free:
            free = free - {n.var}
        _set_var_cache(n, free)
    return node._var_cache


def free_vars(node) -> frozenset:
    """Free first-order variable names of a term/formula/item/sequent.

    Context metavariables contribute nothing: by convention the contexts
    they stand for do not depend on the instantiated variables.
    """
    return _free(node)


def bound_vars(node) -> frozenset:
    return frozenset(n.var for n in walk(node) if type(n) in BINDERS)


def _var_names(node) -> frozenset:
    """``free_vars | bound_vars``, walked when a fresh name is chosen."""
    return _free(node) | bound_vars(node)


# ---------------------------------------------------------------------------
# alpha equivalence

def alpha_eq(a, b, rename=True) -> bool:
    """Structural equality up to renaming of bound variables; with
    ``rename`` off, structural ``==``: binder pairs bind the same name.

    A pair is compared under the renaming that its enclosing binders set
    up, or under none (``None``) while every binder pair so far bound the
    same name, which renames nothing.  Only under no renaming does one
    shared object compare equal to itself without a look inside:
    ``forall x in D . A(x)`` and ``forall y in D . A(x)`` can share the
    very same ``A(x)``.  Two sequents are compared by their items first.
    """
    if type(a) is type(b) is Sequent:
        same = a.antecedent == b.antecedent and a.succedent == b.succedent
        if same or not rename:
            return same
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
            if not rename:
                return False
            ab, ba = ({}, {}) if env is None else (dict(env[0]), dict(env[1]))
            ab[a.var] = b.var
            ba[b.var] = a.var
            env = (ab, ba)
        for x, y in zip(kids_a, kids_b):
            if x is not y or env is not None:
                push((x, y, env))
    return True


def _structural_eq(a, b, _pairs=alpha_eq):  # == calls no name alpha_eq
    return _pairs(a, b, False) if isinstance(b, _Syntax) else NotImplemented


_Syntax.__eq__ = _structural_eq


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
    ratios = [(p.numerator, p.denominator) for p in probs]
    if ratios.count(ratios[0]) == len(ratios):
        return "uniform"
    return "measured"


def _ratio_sum(ratios) -> tuple:
    """The sum of ratios (n, d), over their least common denominator."""
    num, den = 0, 1
    for n, d in ratios:
        g = gcd(den, d)
        num, den = num * (d // g) + n * (den // g), den // g * d
    return num, den


class Domain(_Frozen):
    """Named random first-order domain: outcome terms plus focus status."""

    __slots__ = ("name", "elements", "focused", "kind", "_by_label")

    def __init__(self, name: str, elements: tuple, focused: bool = False,
                 kind: str = "measured"):
        elements = tuple(elements)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "focused", focused)
        object.__setattr__(self, "kind", kind)
        if kind not in DOMAIN_KINDS:
            raise DomainError(f"unknown domain kind {kind!r}")
        if not elements:
            raise DomainError(f"domain {name} has no elements")
        labels = []
        ratios = []  # each probability as (numerator, denominator)
        for e in elements:
            if not isinstance(e, (Outcome, Sharp)):
                raise DomainError(
                    f"domain {name}: element {e!r} is not an outcome term")
            labels.append(e.state)
            p = term_prob(e)
            ratios.append((p.numerator, p.denominator))
        if len(set(labels)) != len(labels):
            raise DomainError(f"domain {name}: state labels not distinct")
        num, den = _ratio_sum(ratios)
        if num != den:
            raise DomainError(f"domain {name}: probabilities sum to "
                              f"{Fraction(num, den)}, not 1")
        if kind == "singleton":
            if len(elements) != 1 or ratios[0] != (1, 1):
                raise DomainError(
                    f"domain {name}: singleton must hold one element of probability 1")
        if kind == "uniform" and ratios.count(ratios[0]) != len(ratios):
            raise DomainError(
                f"domain {name}: uniform kind requires equal probabilities")
        if is_singleton_literal(name) and labels != [name[1:-1]]:
            raise DomainError(f"domain {name}: a singleton literal name "
                              f"holds exactly {{ #{name[1:-1]} }}")
        object.__setattr__(self, "_by_label", dict(zip(labels, elements)))

    @property
    def labels(self) -> tuple:
        return tuple(self._by_label)

    def element(self, label: str) -> Optional[Term]:
        """The element with state label ``label``, or None."""
        return self._by_label.get(label)

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
