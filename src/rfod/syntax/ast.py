"""Terms, formulas, sequents and domains.

Everything here is immutable after construction, so values can be shared
freely between threads.  Term equality identifies an outcome carrying
probability 1 with the sharp term of the same state label; all other
comparisons are structural.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from ..errors import DomainError

#: tolerance for the probability-mass invariant of a domain
PROB_SUM_TOL = Fraction(1, 10**9)


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

    def __ne__(self, other):
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

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

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Member(Formula):
    term: Term
    domain: str


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Star(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Bot(Formula):
    """Falsum; the optional label names the incompatible observable's domain."""

    label: Optional[str] = None


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    domain: str
    body: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    domain: str
    body: Formula


@dataclass(frozen=True)
class Bowtie(Formula):
    """Predicative binary connective internalising the correlated comma."""

    var: str
    domain: str
    left: Formula
    right: Formula


# ---------------------------------------------------------------------------
# sequents

@dataclass(frozen=True)
class ContextVar:
    """Schematic context metavariable (G, G', Delta, ...)."""

    name: str


@dataclass(frozen=True)
class Correlated:
    """Succedent slot A ,_S A': two formulas sharing one random variable."""

    label: str
    left: Formula
    right: Formula


Item = Union[Formula, ContextVar]
SuccItem = Union[Formula, ContextVar, Correlated]


@dataclass(frozen=True)
class Sequent:
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

    def context_var_names(self) -> frozenset:
        names = set()
        for item in self.antecedent + self.succedent:
            if isinstance(item, ContextVar):
                names.add(item.name)
        return frozenset(names)


# ---------------------------------------------------------------------------
# free variables

def free_vars(node) -> frozenset:
    """Free first-order variable names of a term/formula/item/sequent.

    Context metavariables contribute nothing: by convention the contexts
    they stand for do not depend on the instantiated variables.
    """
    acc: set = set()
    _collect_free(node, acc)
    return frozenset(acc)


def _collect_free(node, acc: set) -> None:
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, (Outcome, Sharp, ContextVar, Bot)):
        pass
    elif isinstance(node, Atom):
        for a in node.args:
            _collect_free(a, acc)
    elif isinstance(node, Member):
        _collect_free(node.term, acc)
    elif isinstance(node, (Eq, Neq)):
        _collect_free(node.left, acc)
        _collect_free(node.right, acc)
    elif isinstance(node, (And, Or, Star)):
        _collect_free(node.left, acc)
        _collect_free(node.right, acc)
    elif isinstance(node, (Forall, Exists)):
        inner: set = set()
        _collect_free(node.body, inner)
        inner.discard(node.var)
        acc |= inner
    elif isinstance(node, Bowtie):
        inner = set()
        _collect_free(node.left, inner)
        _collect_free(node.right, inner)
        inner.discard(node.var)
        acc |= inner
    elif isinstance(node, Correlated):
        _collect_free(node.left, acc)
        _collect_free(node.right, acc)
    elif isinstance(node, Sequent):
        for item in node.antecedent + node.succedent:
            _collect_free(item, acc)
    else:
        raise TypeError(f"free_vars: unsupported node {node!r}")


def bound_vars(node) -> frozenset:
    acc: set = set()
    _collect_bound(node, acc)
    return frozenset(acc)


def _collect_bound(node, acc: set) -> None:
    if isinstance(node, (Forall, Exists)):
        acc.add(node.var)
        _collect_bound(node.body, acc)
    elif isinstance(node, Bowtie):
        acc.add(node.var)
        _collect_bound(node.left, acc)
        _collect_bound(node.right, acc)
    elif isinstance(node, (And, Or, Star)):
        _collect_bound(node.left, acc)
        _collect_bound(node.right, acc)
    elif isinstance(node, Correlated):
        _collect_bound(node.left, acc)
        _collect_bound(node.right, acc)
    elif isinstance(node, Sequent):
        for item in node.antecedent + node.succedent:
            _collect_bound(item, acc)


# ---------------------------------------------------------------------------
# alpha equivalence

def alpha_eq(a, b) -> bool:
    """Structural equality up to renaming of bound variables."""
    return _alpha(a, b, {}, {})


def _alpha(a, b, env_ab: dict, env_ba: dict) -> bool:
    if isinstance(a, Term) or isinstance(b, Term):
        return _alpha_term(a, b, env_ab, env_ba)
    if type(a) is not type(b):
        return False
    if isinstance(a, ContextVar):
        return a.name == b.name
    if isinstance(a, Atom):
        return a.pred == b.pred and len(a.args) == len(b.args) and all(
            _alpha_term(x, y, env_ab, env_ba) for x, y in zip(a.args, b.args))
    if isinstance(a, Member):
        return a.domain == b.domain and _alpha_term(a.term, b.term, env_ab, env_ba)
    if isinstance(a, (Eq, Neq)):
        return (_alpha_term(a.left, b.left, env_ab, env_ba)
                and _alpha_term(a.right, b.right, env_ab, env_ba))
    if isinstance(a, (And, Or, Star, Correlated)):
        if isinstance(a, Correlated) and a.label != b.label:
            return False
        return (_alpha(a.left, b.left, env_ab, env_ba)
                and _alpha(a.right, b.right, env_ab, env_ba))
    if isinstance(a, Bot):
        return a.label == b.label
    if isinstance(a, (Forall, Exists)):
        if a.domain != b.domain:
            return False
        ab = dict(env_ab)
        ba = dict(env_ba)
        ab[a.var] = b.var
        ba[b.var] = a.var
        return _alpha(a.body, b.body, ab, ba)
    if isinstance(a, Bowtie):
        if a.domain != b.domain:
            return False
        ab = dict(env_ab)
        ba = dict(env_ba)
        ab[a.var] = b.var
        ba[b.var] = a.var
        return (_alpha(a.left, b.left, ab, ba)
                and _alpha(a.right, b.right, ab, ba))
    if isinstance(a, Sequent):
        if len(a.antecedent) != len(b.antecedent):
            return False
        if len(a.succedent) != len(b.succedent):
            return False
        return all(_alpha(x, y, env_ab, env_ba)
                   for x, y in zip(a.antecedent + a.succedent,
                                   b.antecedent + b.succedent))
    raise TypeError(f"alpha_eq: unsupported node {a!r}")


def _alpha_term(a, b, env_ab: dict, env_ba: dict) -> bool:
    if isinstance(a, Var) and isinstance(b, Var):
        if a.name in env_ab or b.name in env_ba:
            return env_ab.get(a.name) == b.name and env_ba.get(b.name) == a.name
        return a.name == b.name
    if isinstance(a, Term) and isinstance(b, Term):
        if isinstance(a, Var) or isinstance(b, Var):
            return False
        return a == b
    return False


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
        if abs(total - 1) > PROB_SUM_TOL:
            raise DomainError(
                f"domain {self.name}: probabilities sum to {total}, not 1")
        if self.kind == "singleton":
            if len(self.elements) != 1 or probs[0] != 1:
                raise DomainError(
                    f"domain {self.name}: singleton must hold one element of probability 1")
        if self.kind == "uniform" and len(set(probs)) != 1:
            raise DomainError(
                f"domain {self.name}: uniform kind requires equal probabilities")

    @property
    def labels(self) -> tuple:
        return tuple(term_state(e) for e in self.elements)

    @property
    def probs(self) -> tuple:
        return tuple(term_prob(e) for e in self.elements)

    def is_singleton(self) -> bool:
        return len(self.elements) == 1 and term_prob(self.elements[0]) == 1


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
        """State labels admissible in the sharp companion set of that name."""
        if sharp_name.endswith("^f"):
            base = self.resolve(sharp_name[:-2])
            return base.labels
        return self.resolve(sharp_name).labels

    def names(self):
        return tuple(sorted(self._by_name))

    def domains(self):
        return tuple(self._by_name[n] for n in sorted(self._by_name))
