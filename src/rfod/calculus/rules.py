"""Rule catalog: definitory equations, one-directional rules, axioms.

Each definitory equation is an "iff" between a sequent containing a
connective and sequent(s) without it.  ``forward`` composes the connective
(the conclusion carries it), ``backward`` decomposes.  The equality
equation is the one exception to that reading: Leibniz rewriting consumes
the equality, so its composed side is the equality-free sequent and
``backward`` is the step that abstracts a term into a fresh variable.

The ``decompose_*`` functions are the only definition of the eight
equations, and each is read both ways.  ``equation_step`` applies one
backward as it is.  Forward, it puts the connective together from its
parts on the plain side and keeps the result only when the
decomposition gives the plain side back, so every side condition is
checked in one place.  The equality equation is read forward by
``compose_equality`` alone: its decomposition cannot say which
occurrences of the term it abstracted.  The checker validates an
equation step by recomputing it the same way.  It passes the step's
parameters through unchanged and infers only the missing ones, so each
parameter means the same thing in all three.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from ..errors import FragmentError, RuleError
from ..syntax.ast import (
    BINDERS, And, Atom, Bot, Bowtie, Correlated, DomainTable, Eq, Exists,
    Forall, Formula, Member, Neq, Or, Sequent, Star, Term, Var, alpha_eq,
    _var_names, alpha_eq_all, children, free_vars, is_singleton_literal,
    rebuild, rewrite, term_state,
)
from ..syntax.printer import render_sequent
from ..syntax.subst import (
    fresh_var, replace_term_occurrences, subst_formula, subst_sequent,
)


class RuleId(Enum):
    # bidirectional definitory equations
    EQ_FORALL_R = "eq_forall_r"
    EQ_AND_R = "eq_and_r"
    EQ_STAR_R = "eq_star_r"
    EQ_BOT_R = "eq_bot_r"
    EQ_OR_L = "eq_or_l"
    EQ_EXISTS_L = "eq_exists_l"
    EQ_EQUALITY = "eq_equality"
    EQ_BOWTIE_R = "eq_bowtie_r"
    # one-directional rules
    IDENTITY = "identity"
    REFLEXIVITY = "reflexivity"
    CUT = "cut"
    SUBST = "subst"
    F_SUBST = "f_subst"
    EXISTS_R = "exists_r"
    WEAKEN_L = "weaken_l"          # structural, implied by the Prop 2 proof
    DUALIZE = "dualize"
    # axioms, gated by the theory configuration
    AX_SINGLETON = "ax_singleton"
    AX_FOCUS = "ax_focus"
    AX_MEMBER = "ax_member"        # declared membership fact |- t in D
    AX_SHARP_MEMBER = "ax_sharp_member"  # declared fact |- #s in D^f
    # open assumption leaf
    HYPOTHESIS = "hypothesis"


EQUATIONS = frozenset({
    RuleId.EQ_FORALL_R, RuleId.EQ_AND_R, RuleId.EQ_STAR_R, RuleId.EQ_BOT_R,
    RuleId.EQ_OR_L, RuleId.EQ_EXISTS_L, RuleId.EQ_EQUALITY, RuleId.EQ_BOWTIE_R,
})
AXIOMS = frozenset({
    RuleId.AX_SINGLETON, RuleId.AX_FOCUS, RuleId.AX_MEMBER,
    RuleId.AX_SHARP_MEMBER,
})

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class TheoryConfig:
    """Axiom toggles and the additive/classical mode switch."""

    singleton_axioms: bool = True
    focused_domains: frozenset = frozenset()
    right_contexts_in_forall: bool = False

    def __post_init__(self):
        object.__setattr__(self, "focused_domains",
                           frozenset(self.focused_domains))

    def is_singleton_domain(self, name: str, table: Optional[DomainTable]) -> bool:
        if is_singleton_literal(name):
            return True
        if table is not None and name in table:
            return table.resolve(name).kind == "singleton"
        return False

    def is_focused(self, name: str, table: Optional[DomainTable] = None) -> bool:
        if name in self.focused_domains:
            return True
        if table is not None and name in table and table.resolve(name).focused:
            return True
        # singletons cannot be unfocused once the singleton axioms are on
        return self.singleton_axioms and self.is_singleton_domain(name, table)


@dataclass
class Verdict:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self):
        return self.ok


# ---------------------------------------------------------------------------
# small helpers

def _require(cond: bool, message: str):
    if not cond:
        raise RuleError(message)


#: where each equation's connective sits: the parameter naming its
#: position (or the fixed position: 0 for the lone succedent item, -1 for
#: the last one), the side, and the connective's class.  The
#: ``decompose_*`` functions, the forward reading and the checker's
#: parameter completion all read it.
_CONNECTIVE_AT = {
    RuleId.EQ_FORALL_R: ("slot", "succedent", Forall),
    RuleId.EQ_AND_R: (0, "succedent", And),
    RuleId.EQ_STAR_R: ("slot", "succedent", Star),
    RuleId.EQ_BOT_R: (-1, "succedent", Bot),
    RuleId.EQ_OR_L: ("index", "antecedent", Or),
    RuleId.EQ_EXISTS_L: ("index", "antecedent", Exists),
    RuleId.EQ_EQUALITY: ("index", "antecedent", Eq),
    RuleId.EQ_BOWTIE_R: (0, "succedent", Bowtie),
}


def _find_connective(s: Sequent, rule: RuleId, params: Optional[dict]) -> int:
    key, side, cls = _CONNECTIVE_AT[rule]
    items = getattr(s, side)
    params = params or {}
    if isinstance(key, int) or key in params:
        k = key % len(items) if isinstance(key, int) else params[key]
        if not 0 <= k < len(items):
            raise RuleError(f"{side} position {k} out of range")
        if not isinstance(items[k], cls):
            raise RuleError(f"{side} item {k} is not a {cls.__name__}")
    else:
        hits = [i for i, f in enumerate(items) if isinstance(f, cls)]
        if len(hits) != 1:
            raise RuleError(f"no {cls.__name__} item in {side}" if not hits
                            else f"ambiguous {cls.__name__} item, pass "
                                 f"{key}=<index>")
        k = hits[0]
    # a parameter naming a field of the connective must agree with it
    name, fld = ("bound", "var") if cls in BINDERS else ("label", "label")
    given = params.get(name)
    if given is not None and getattr(items[k], fld, given) != given:
        raise RuleError(f"{name}={given} does not match {side} item {k}")
    return k


def _fresh_choice(s: Sequent, params: Optional[dict], key: str = "var") -> str:
    if params and key in params:
        z = params[key]
        if z in _var_names(s) and z in free_vars(s):  # the cheap walk first
            raise RuleError(f"variable {z} is not fresh for {render_sequent(s)}")
        return z
    return fresh_var(_var_names(s))


def pick_bound_name(bodies, preferred: str = "x") -> str:
    taken = set().union(*map(_var_names, bodies))
    if preferred not in taken:
        return preferred
    if preferred + "'" not in taken:
        return preferred + "'"
    i = 1
    while f"{preferred}{i}" in taken:
        i += 1
    return f"{preferred}{i}"


def correlation_label(domain: str) -> str:
    """Random-variable label tied to a domain name (DS -> S, D_S -> S)."""
    if len(domain) > 1 and domain.startswith("D"):
        return domain[1:].lstrip("_") or domain
    return domain


def bot_label(domain: str) -> str:
    """Falsum label carried from an incompatible observable's domain name."""
    if len(domain) > 2 and domain.startswith("DU"):
        return domain[2:].lstrip("_") or domain
    return correlation_label(domain)


def flatten_or(f: Formula) -> list:
    """Right-associated disjunction spine."""
    out = []
    while isinstance(f, Or):
        out.append(f.left)
        f = f.right
    out.append(f)
    return out


def build_or(parts: Sequence[Formula]) -> Formula:
    return _right_spine(Or, parts)


def build_and(parts: Sequence[Formula]) -> Formula:
    return _right_spine(And, parts)


def _right_spine(cls, parts: Sequence[Formula]) -> Formula:
    parts = list(parts)
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = cls(p, f)
    return f


def _element_matches(term: Term, element: Term) -> bool:
    """Axiom-shape tolerance: an element may be written as the outcome
    term itself or schematically as a variable named by its state label."""
    if term == element:
        return True
    return isinstance(term, Var) and term.name == term_state(element)


def _forall_guard(side: Sequent, cfg: TheoryConfig):
    if not cfg.right_contexts_in_forall and len(side.succedent) != 1:
        raise RuleError(
            "universal quantifier takes no right context in basic mode "
            "(enable classical right contexts)")


# ---------------------------------------------------------------------------
# equation rewrites: decompose (connective side -> plain side), read
# forward by _compose

def decompose_forall(s: Sequent, params: Optional[dict],
                     cfg: TheoryConfig) -> list:
    k = _find_connective(s, RuleId.EQ_FORALL_R, params)
    _forall_guard(s, cfg)
    q = s.succedent[k]
    z = _fresh_choice(s, params)
    body = subst_formula(q.body, q.var, Var(z))
    succ = s.succedent[:k] + (body,) + s.succedent[k + 1:]
    return [Sequent(s.antecedent + (Member(Var(z), q.domain),), succ)]


def decompose_and(s: Sequent, params: Optional[dict]) -> list:
    _require(len(s.succedent) == 1, "expected exactly one succedent item")
    f = s.succedent[_find_connective(s, RuleId.EQ_AND_R, params)]
    return [Sequent(s.antecedent, (f.left,)),
            Sequent(s.antecedent, (f.right,))]


def decompose_star(s: Sequent, params: Optional[dict]) -> list:
    k = _find_connective(s, RuleId.EQ_STAR_R, params)
    f = s.succedent[k]
    succ = s.succedent[:k] + (f.left, f.right) + s.succedent[k + 1:]
    return [Sequent(s.antecedent, succ)]


def decompose_bot(s: Sequent, params: Optional[dict]) -> list:
    _require(len(s.succedent) >= 2, "falsum needs a non-empty right context")
    _find_connective(s, RuleId.EQ_BOT_R, params)
    return [Sequent(s.antecedent, s.succedent[:-1])]


def decompose_or(s: Sequent, params: Optional[dict]) -> list:
    j = _find_connective(s, RuleId.EQ_OR_L, params)
    f = s.antecedent[j]
    return [Sequent(s.antecedent[:j] + (f.left,) + s.antecedent[j + 1:],
                    s.succedent),
            Sequent(s.antecedent[:j] + (f.right,) + s.antecedent[j + 1:],
                    s.succedent)]


def decompose_exists(s: Sequent, params: Optional[dict]) -> list:
    """Open the existential at ``index``; ``member`` and ``body`` place the
    new membership and the body in the plain side's antecedent (by default
    the body takes the existential's place and the membership follows)."""
    j = _find_connective(s, RuleId.EQ_EXISTS_L, params)
    q = s.antecedent[j]
    z = _fresh_choice(s, params)
    params = params or {}
    im = params.get("member", j + 1)
    ib = params.get("body", im - 1)
    size = len(s.antecedent) + 1
    _require(0 <= im < size and 0 <= ib < size and im != ib,
             "member and body need two distinct positions in the antecedent")
    opened = {im: Member(Var(z), q.domain),
              ib: subst_formula(q.body, q.var, Var(z))}
    rest = iter(s.antecedent[:j] + s.antecedent[j + 1:])
    ant = tuple(opened[i] if i in opened else next(rest) for i in range(size))
    return [Sequent(ant, s.succedent)]


def decompose_equality(s: Sequent, params: Optional[dict]) -> list:
    _require(params is not None and "term" in params,
             "equality abstraction needs term=<t>")
    t = params["term"]
    _require(isinstance(t, Term), "term parameter must be a term")
    if "var" in params:
        z = _fresh_choice(s, params)
    else:
        z = fresh_var(_var_names(s) | _var_names(t))
    _require(not (isinstance(t, Var) and t.name == z),
             "abstracted term and fresh variable coincide")
    for k in params.get("positions", ()):  # a missing occurrence leaves s
        _require(replace_term_occurrences(s, t, Var(z), (k,)) is not s,
                 f"positions= names no occurrence {k} of the term")
    abstracted = replace_term_occurrences(s, t, Var(z),
                                          params.get("positions"))
    ant = abstracted.antecedent
    j = params.get("index", len(ant))  # where z = t goes; last by default
    _require(0 <= j <= len(ant), f"index {j} out of range")
    return [Sequent(ant[:j] + (Eq(Var(z), t),) + ant[j:],
                    abstracted.succedent)]


def compose_equality(s: Sequent, params: Optional[dict]) -> Sequent:
    params = params or {}
    if "index" in params:
        candidates = [params["index"]]
    else:
        candidates = range(len(s.antecedent) - 1, -1, -1)
    for j in candidates:
        _require(0 <= j < len(s.antecedent), f"index {j} out of range")
        item = s.antecedent[j]
        if not (isinstance(item, Eq) and isinstance(item.left, Var)):
            continue
        z, t = item.left.name, item.right
        if (isinstance(t, Var) and t.name == z
                or params.get("var", z) != z or params.get("term", t) != t):
            continue
        rest = Sequent(s.antecedent[:j] + s.antecedent[j + 1:], s.succedent)
        return subst_sequent(rest, z, t)
    raise RuleError("no antecedent equality z = t to eliminate")


def decompose_bowtie(s: Sequent, params: Optional[dict]) -> list:
    _require(len(s.succedent) == 1, "expected exactly one succedent item")
    f = s.succedent[_find_connective(s, RuleId.EQ_BOWTIE_R, params)]
    z = _fresh_choice(s, params)
    left = subst_formula(f.left, f.var, Var(z))
    right = subst_formula(f.right, f.var, Var(z))
    slot = Correlated(correlation_label(f.domain), left, right)
    return [Sequent(s.antecedent + (Member(Var(z), f.domain),), (slot,))]


_DECOMPOSE = {
    RuleId.EQ_FORALL_R: lambda s, p, cfg: decompose_forall(s, p, cfg),
    RuleId.EQ_AND_R: lambda s, p, cfg: decompose_and(s, p),
    RuleId.EQ_STAR_R: lambda s, p, cfg: decompose_star(s, p),
    RuleId.EQ_BOT_R: lambda s, p, cfg: decompose_bot(s, p),
    RuleId.EQ_OR_L: lambda s, p, cfg: decompose_or(s, p),
    RuleId.EQ_EXISTS_L: lambda s, p, cfg: decompose_exists(s, p),
    RuleId.EQ_EQUALITY: lambda s, p, cfg: decompose_equality(s, p),
    RuleId.EQ_BOWTIE_R: lambda s, p, cfg: decompose_bowtie(s, p),
}


def _compose(plain: list, eq: RuleId, params: Optional[dict],
             cfg: TheoryConfig) -> Sequent:
    """The forward reading of an equation: its connective put together from
    the parts on the plain side.

    The parts are the membership z in D that a binder closes (``member``,
    by default the last one) and the items the connective takes: at
    ``slot``, at ``body`` for the existential, or where two premises
    differ.  The result is kept only when the equation's ``decompose_*``
    gives the plain side back, so freshness, capture, the right-context
    guard, the correlation label and the agreement of two premises are
    all checked there.
    """
    key, side, cls = _CONNECTIVE_AT[eq]
    p = dict(params or {})
    s = plain[0]
    items = getattr(s, side)
    taken = set()  # (side, position) of the plain items the connective takes
    if cls in BINDERS:
        vars_at = [i for i, f in enumerate(s.antecedent)
                   if isinstance(f, Member) and isinstance(f.term, Var)]
        m = p.setdefault("member", vars_at[-1] if vars_at else None)
        _require(m in vars_at, "no membership z in D to bind at that position")
        z, domain = s.antecedent[m].term.name, s.antecedent[m].domain
        p.setdefault("var", z)
        taken.add(("antecedent", m))
    part_key = "body" if cls is Exists else key
    if isinstance(key, int):
        k = len(items) if cls is Bot else key  # falsum goes after the last
    elif part_key in p:
        k = p[part_key]
    else:
        if len(plain) == 2:
            other = getattr(plain[1], side)
            hits = [i for i, (a, b) in enumerate(zip(items, other))
                    if not alpha_eq(a, b)]
        elif cls is Forall:
            hits = [i for i, f in enumerate(items) if z in free_vars(f)]
        else:
            hits = [m - 1] if cls is Exists else [0] if len(items) == 2 else []
        _require(len(hits) == 1, f"cannot tell where the parts of the "
                                 f"{cls.__name__} are, pass {part_key}=<index>")
        k = hits[0]
    width = 2 if cls is Star else 0 if cls is Bot else 1
    parts = [f for q in plain for f in getattr(q, side)[k:k + width]]
    _require(k >= 0 and len(parts) == width * len(plain),
             f"{side} position {k} out of range")
    if cls is Bowtie:
        _require(isinstance(parts[0], Correlated),
                 "a bowtie closes a correlated slot")
        parts = children(parts[0])
    _require(all(isinstance(f, Formula) for f in parts),
             f"the parts of a {cls.__name__} must be formulas")
    if cls in BINDERS:
        x = p.get("bound") or pick_bound_name(parts)
        made = cls(x, domain, *(subst_formula(f, z, Var(x)) for f in parts))
    else:
        made = Bot(p.get("label")) if cls is Bot else cls(*parts)
    taken |= {(side, i) for i in range(k, k + width)}
    at = k
    if cls is Exists:
        p["body"] = k
        at = p.setdefault(key, min(m, k))
    elif isinstance(key, str):
        p[key] = k
    kept = {n: [f for i, f in enumerate(getattr(s, n)) if (n, i) not in taken]
            for n in ("antecedent", "succedent")}
    kept[side].insert(at, made)
    composed = Sequent(kept["antecedent"], kept["succedent"])
    _require(alpha_eq_all(_DECOMPOSE[eq](composed, p, cfg), plain),
             f"{render_sequent(composed)} does not decompose back to the "
             f"plain side of {eq.value}")
    return composed


def equation_step(s, eq: RuleId, direction: str, params: Optional[dict] = None,
                  cfg: Optional[TheoryConfig] = None):
    """Rewrite along a definitory equation; returns the sequent(s) on the
    other side of the "iff".

    ``backward`` decomposes the connective out of ``s``; ``forward``
    composes it (for the two-premise equations pass a list of sequents).
    """
    cfg = cfg or TheoryConfig()
    _require(eq in EQUATIONS, f"{eq.value} is not a definitory equation")
    if direction == BACKWARD:
        _require(isinstance(s, Sequent), "backward step takes one sequent")
        return _DECOMPOSE[eq](s, params, cfg)
    _require(direction == FORWARD, f"unknown direction {direction!r}")
    seqs = [s] if isinstance(s, Sequent) else list(s)
    count = 2 if eq in (RuleId.EQ_AND_R, RuleId.EQ_OR_L) else 1
    _require(len(seqs) == count,
             f"{eq.value} composes from {count} sequent(s)")
    if eq is RuleId.EQ_EQUALITY:
        return [compose_equality(seqs[0], params)]
    return [_compose(seqs, eq, params, cfg)]


# ---------------------------------------------------------------------------
# dualize

#: the dual of each class of the dualizable fragment; each pair shares
#: one layout, and atoms and memberships are self-dual
_DUAL = {Atom: Atom, Member: Member, Eq: Neq, Neq: Eq, And: Or, Or: And,
         Forall: Exists, Exists: Forall}


def _dual_formula(f):
    def enter(node, _):
        if isinstance(node, Term):
            return node, None
        dual = _DUAL.get(type(node))
        if dual is None:
            raise FragmentError(f"formula outside the dualizable fragment: "
                                f"{type(node).__name__}")
        if dual is type(node):  # atoms and memberships hold only terms
            return node, None
        return rebuild(node, children(node), dual), ()

    return rewrite(f, enter)


def dualize(s: Sequent) -> Sequent:
    """Swap the two sides, dualizing every formula (& <-> \\/, forall <->
    exists, = <-> !=; atoms and memberships are self-dual).  Top-level
    antecedent memberships are pinned to the antecedent, which is what
    makes the transform match the displayed duality steps; on sequents in
    membership-first form the transform is an involution.
    """
    for item in s.antecedent:
        if type(item) not in _DUAL:
            raise FragmentError(
                f"antecedent item outside the dualizable fragment: "
                f"{type(item).__name__}")
    for slot in s.succedent:
        if isinstance(slot, Member):
            raise FragmentError(
                "top-level succedent membership cannot be dualized")
        if type(slot) not in _DUAL:
            raise FragmentError(
                f"succedent item outside the dualizable fragment: "
                f"{type(slot).__name__}")
    members = tuple(i for i in s.antecedent if isinstance(i, Member))
    others = tuple(i for i in s.antecedent if not isinstance(i, Member))
    new_ant = members + tuple(_dual_formula(f) for f in reversed(s.succedent))
    new_succ = tuple(_dual_formula(f) for f in reversed(others))
    return Sequent(new_ant, new_succ)
