"""Rule catalog: every rule with premises is one function from its
premises' conclusions and complete parameters to its conclusion, and a
failed side condition raises ``RuleError``.  The checker recomputes a
step with these functions, and the theorem builders build with them
through ``conclude``, so each parameter means the same thing in both.

Each definitory equation is an "iff" between a sequent containing a
connective and sequent(s) without it.  The ``decompose_*`` functions
define the eight equations, each going from the connective side to the
plain side; equality's connective side is the one with the antecedent
z = t, and decomposing it eliminates the equality, putting t back for z.
``equation_step`` reads each both ways: composing, it puts the connective
together from the plain side and keeps the result only when the
decomposition gives the plain side back, so every side condition is
checked in one place.  ``forward`` composes the connective (the conclusion
carries it) and ``backward`` decomposes, except for equality, whose
direction word reads the other way: Leibniz rewriting consumes the
equality, so ``forward`` eliminates it and ``backward`` abstracts a term
into a variable.
The other rules with premises are ``cut``, ``substitute`` (plain and
forgetful), ``exists_r``, ``weaken_l`` and ``dualize``.
"""
from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from ..errors import DomainError, FragmentError, RuleError
from ..syntax.ast import (
    BINDERS, And, Atom, Bot, Bowtie, ContextVar, Correlated, DomainTable, Eq,
    Exists, Forall, Formula, Member, Neq, Or, Sequent, Sharp, Star, Term, Var,
    _Frozen, _var_names, alpha_eq, alpha_eq_all, children,
    free_vars, is_closed, is_singleton_literal, rebuild, rewrite,
    sharp_domain_name, term_state,
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

    # members are singletons: hash them by identity, in C, not by name
    __hash__ = object.__hash__


EQUATIONS = frozenset({
    RuleId.EQ_FORALL_R, RuleId.EQ_AND_R, RuleId.EQ_STAR_R, RuleId.EQ_BOT_R,
    RuleId.EQ_OR_L, RuleId.EQ_EXISTS_L, RuleId.EQ_EQUALITY, RuleId.EQ_BOWTIE_R,
})
AXIOMS = frozenset({
    RuleId.AX_SINGLETON, RuleId.AX_FOCUS, RuleId.AX_MEMBER,
    RuleId.AX_SHARP_MEMBER,
})
#: the rules with two premises (an equation's when read forward)
_TWO_PREMISES = frozenset({RuleId.EQ_AND_R, RuleId.EQ_OR_L, RuleId.CUT})

FORWARD = "forward"
BACKWARD = "backward"

#: parameter key -> the kind of its value, which says how a script reads
#: and writes it; a step carries no other key
_PARAM_KINDS = {
    **dict.fromkeys(("slot", "index", "member", "body", "position"), "int"),
    "term": "term",
    "cut": "formula",
    **dict.fromkeys(("var", "bound", "label", "state", "domain", "pick"),
                    "name"),
}


class TheoryConfig(_Frozen):
    """Axiom toggles and the additive/classical mode switch."""

    __slots__ = ("singleton_axioms", "focused_domains",
                 "right_contexts_in_forall")

    def __init__(self, singleton_axioms: bool = True,
                 focused_domains: frozenset = frozenset(),
                 right_contexts_in_forall: bool = False):
        object.__setattr__(self, "singleton_axioms", singleton_axioms)
        object.__setattr__(self, "focused_domains",
                           frozenset(focused_domains))
        object.__setattr__(self, "right_contexts_in_forall",
                           right_contexts_in_forall)

    def is_focused(self, name: str, table: DomainTable) -> bool:
        """Focused here or in ``table``, or, under the singleton axioms, a
        singleton: a ``{u}`` literal (declared so or not) or of that kind."""
        if name in self.focused_domains:
            return True
        domain = table.resolve(name) if name in table else None
        if domain is not None and domain.focused:
            return True
        return self.singleton_axioms and (
            is_singleton_literal(name)
            or domain is not None and domain.kind == "singleton")


# ---------------------------------------------------------------------------
# small helpers

def _require(cond: bool, message: str, *args):
    """Raise RuleError unless cond, formatting the message only then."""
    if not cond:
        raise RuleError(message.format(*args) if args else message)


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
        if z in free_vars(s):
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


def build_and(parts: Sequence[Formula]) -> Formula:
    f = parts[-1]
    for p in reversed(parts[:-1]):
        f = And(p, f)
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
    """Eliminate the antecedent z = t at ``index`` (by default the last one
    that var= and term= allow), putting t back for z."""
    params = params or {}
    if "index" in params:
        candidates = [params["index"]]
    else:
        candidates = range(len(s.antecedent) - 1, -1, -1)
    for j in candidates:
        _require(0 <= j < len(s.antecedent), "index {} out of range", j)
        item = s.antecedent[j]
        if not (isinstance(item, Eq) and isinstance(item.left, Var)):
            continue
        z, t = item.left.name, item.right
        if (isinstance(t, Var) and t.name == z
                or params.get("var", z) != z or params.get("term", t) != t):
            continue
        rest = Sequent(s.antecedent[:j] + s.antecedent[j + 1:], s.succedent)
        return [subst_sequent(rest, z, t)]
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


def _compose(plain: list, eq: RuleId, p: dict) -> Sequent:
    """An equation's connective side put together from the parts on its
    plain side, completing the parameters ``p``.

    The parts are the membership z in D that a binder closes (``member``,
    by default the last one) and the items the connective takes: at
    ``slot``, at ``body`` for the existential, or where two premises
    differ.  Equality abstracts ``term`` into ``var`` (or a fresh name) at
    every occurrence and puts z = t at ``index`` of the antecedent, last by
    default.
    """
    key, side, cls = _CONNECTIVE_AT[eq]
    s = plain[0]
    if cls is Eq:
        _require("term" in p, "equality abstraction needs term=<t>")
        t = p["term"]
        _require(isinstance(t, Term), "term parameter must be a term")
        z = p.get("var") or fresh_var(_var_names(s) | _var_names(t))
        _require(not (isinstance(t, Var) and t.name == z),
                 "abstracted term and fresh variable coincide")
        s = replace_term_occurrences(s, t, Var(z))
        j = p.setdefault("index", len(s.antecedent))
        return Sequent(s.antecedent[:j] + (Eq(Var(z), t),) + s.antecedent[j:],
                       s.succedent)
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
        _require(len(hits) == 1, "cannot tell where the parts of the "
                                 "{.__name__} are, pass {}=<index>", cls, part_key)
        k = hits[0]
    width = 2 if cls is Star else 0 if cls is Bot else 1
    parts = [f for q in plain for f in getattr(q, side)[k:k + width]]
    _require(k >= 0 and len(parts) == width * len(plain),
             "{} position {} out of range", side, k)
    if cls is Bowtie:
        _require(isinstance(parts[0], Correlated),
                 "a bowtie closes a correlated slot")
        parts = children(parts[0])
    _require(all(isinstance(f, Formula) for f in parts),
             "the parts of a {.__name__} must be formulas", cls)
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
    return Sequent(kept["antecedent"], kept["succedent"])


def equation_step(s, eq: RuleId, direction: str, params: Optional[dict] = None,
                  cfg: Optional[TheoryConfig] = None):
    """Rewrite along a definitory equation; returns the sequent(s) on the
    other side of the "iff".

    ``backward`` decomposes the connective out of ``s``; ``forward``
    composes it (for the two-premise equations pass a list of sequents).
    For equality the words swap: ``forward`` eliminates z = t and
    ``backward`` abstracts the term.
    """
    cfg = cfg or TheoryConfig()
    _require(eq in EQUATIONS, "{.value} is not a definitory equation", eq)
    _require(direction in (FORWARD, BACKWARD), "unknown direction {!r}",
             direction)
    if (direction == BACKWARD) != (eq is RuleId.EQ_EQUALITY):
        _require(isinstance(s, Sequent), "{} step takes one sequent",
                 direction)
        return _DECOMPOSE[eq](s, params, cfg)
    seqs = [s] if isinstance(s, Sequent) else list(s)
    count = 2 if eq in _TWO_PREMISES else 1
    _require(len(seqs) == count,
             "{.value} composes from {} sequent(s)", eq, count)
    # kept only when the decomposition gives the plain side back, so
    # freshness, capture, the right-context guard, the correlation label
    # and the agreement of two premises are all checked there
    p = dict(params or {})
    composed = _compose(seqs, eq, p)
    if not alpha_eq_all(_DECOMPOSE[eq](composed, p, cfg), seqs):
        raise RuleError(f"{render_sequent(composed)} does not decompose back "
                        f"to the plain side of {eq.value}")
    return [composed]


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


# ---------------------------------------------------------------------------
# the other rules with premises

def _sequent(antecedent: tuple, succedent: tuple) -> Sequent:
    """A sequent a rule puts together; one that repeats a context variable
    on a side rejects the step."""
    try:
        return Sequent(antecedent, succedent)
    except DomainError as exc:
        raise RuleError(str(exc)) from exc


def cut(left: Sequent, right: Sequent, params: dict) -> Sequent:
    """Gamma |- A and Delta, A, Delta' |- Theta give Delta, Gamma, Delta'
    |- Theta, with A at ``index`` of the second premise's antecedent; a
    ``cut`` formula, when given, must be A."""
    _require(len(left.succedent) == 1 and isinstance(left.succedent[0], Formula),
             "first cut premise must conclude a single formula")
    a, j, ant = left.succedent[0], params["index"], right.antecedent
    _require("cut" not in params or alpha_eq(params["cut"], a),
             "cut formula does not match the first premise")
    _require(0 <= j < len(ant) and isinstance(ant[j], Formula)
             and alpha_eq(ant[j], a),
             "antecedent item {} of the second premise is not the cut formula",
             j)
    return _sequent(ant[:j] + left.antecedent + ant[j + 1:], right.succedent)


def _lookup(lookup, name: str, params: dict, sharp: bool = False):
    """Resolve a domain a step names.  An undeclared one rejects the step,
    and so does a domain= that names another domain (for a sharp fact,
    another set than the one whose companion it is in)."""
    if "domain" in params:
        named = params["domain"]
        expected = sharp_domain_name(named) if sharp else named
        _require(expected == name, "the conclusion is in {}, not in {} "
                                   "(domain={})", name, expected, named)
    try:
        return lookup(name)
    except DomainError as exc:
        raise RuleError(str(exc)) from exc


def substitute(premise: Sequent, params: dict, forgetful: bool = False,
               cfg: Optional[TheoryConfig] = None,
               table: Optional[DomainTable] = None) -> Sequent:
    """The premise with the variable ``var`` replaced by the closed
    ``term`` or, forgetfully, by the sharp state of ``state``, an outcome
    of the last domain the premise's antecedent puts ``var`` in.  Forgetful
    substitution rests on the singleton axioms."""
    v = params["var"]
    if any(isinstance(i, ContextVar) and i.name == v
           for i in premise.antecedent + premise.succedent):
        raise RuleError(f"variable {v} also names a context metavariable; "
                        f"its occurrences there are unknowable")
    if not forgetful:
        t = params["term"]
        _require(is_closed(t), "substituted term {!r} is not closed", t)
        return subst_sequent(premise, v, t)
    _require(cfg is None or cfg.singleton_axioms,
             "forgetful substitution is disabled: it rests on the singleton "
             "axioms (singleton_axioms off)")
    domains = [i.domain for i in premise.antecedent
               if isinstance(i, Member) and isinstance(i.term, Var)
               and i.term.name == v]
    _require(bool(domains), "the premise puts {} in no domain", v)
    domain = _lookup((table or DomainTable()).resolve, domains[-1], {})
    s = params["state"]
    _require(s in domain.labels,
             "state {} is not an outcome of domain {.name}", s, domain)
    return subst_sequent(premise, v, Sharp(s), mode="forgetful")


def exists_r(premise: Sequent, params: dict) -> Sequent:
    """Gamma |- A(t) gives Gamma, t in D |- (exists x in D . A(x)) for the
    ``existential`` and the witness ``term``; the membership is added only
    when Gamma lacks it."""
    ex, t = params["existential"], params["term"]
    _require(isinstance(ex, Exists), "exists_r concludes an existential")
    _require(len(premise.succedent) == 1 and alpha_eq(
        subst_formula(ex.body, ex.var, t), premise.succedent[0]),
        "the premise must conclude the existential's body at the witness")
    member = Member(t, ex.domain)
    ant = premise.antecedent
    return Sequent(ant if member in ant else ant + (member,), (ex,))


def weaken_l(premise: Sequent, params: dict) -> Sequent:
    """Gamma |- Delta gives Gamma |- Delta with ``formula`` put at
    ``position`` of the antecedent."""
    j, ant = params["position"], premise.antecedent
    _require(0 <= j <= len(ant), "position {} out of range", j)
    return _sequent(ant[:j] + (params["formula"],) + ant[j:],
                    premise.succedent)


#: the pieces a backward step may conclude, by its pick parameter
_PICK = {None: slice(None), "left": slice(1), "right": slice(-1, None)}


def conclude(rule: RuleId, premises: Sequence[Sequent], params: dict,
             cfg: Optional[TheoryConfig] = None,
             table: Optional[DomainTable] = None,
             direction: Optional[str] = None) -> Sequent:
    """The conclusion of a rule with premises, from their conclusions and
    complete parameters; a backward equation step with two pieces needs
    pick=left|right."""
    if rule in EQUATIONS:
        lone = premises[0] if len(premises) == 1 else premises
        pieces = equation_step(lone, rule, direction, params, cfg)
        pieces = pieces[_PICK.get(params.get("pick"), slice(0))]
        _require(len(pieces) == 1, "{.value} gives no single sequent", rule)
        return pieces[0]
    if rule is RuleId.CUT:
        return cut(*premises, params)
    if rule in (RuleId.SUBST, RuleId.F_SUBST):
        return substitute(premises[0], params, rule is RuleId.F_SUBST, cfg,
                          table)
    if rule is RuleId.EXISTS_R:
        return exists_r(premises[0], params)
    if rule is RuleId.WEAKEN_L:
        return weaken_l(premises[0], params)
    _require(rule is RuleId.DUALIZE, "{.value} has no premises", rule)
    return dualize(premises[0])
