"""Rule catalog: definitory equations, one-directional rules, axioms.

Each definitory equation is an "iff" between a sequent containing a
connective and sequent(s) without it.  ``forward`` composes the connective
(the conclusion carries it), ``backward`` decomposes.  The equality
equation is the one exception to that reading: Leibniz rewriting consumes
the equality, so its composed side is the equality-free sequent and
``backward`` is the step that abstracts a term into a fresh variable.

The ``decompose_*`` and ``compose_*`` functions are the only definition
of the eight equations: ``equation_step`` applies them, and the checker
validates an equation step by recomputing it with them.  The checker
passes the step's parameters through unchanged and infers only the
missing ones, so each parameter means the same thing in both.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from ..errors import FragmentError, RuleError
from ..syntax.ast import (
    And, Atom, Bot, Bowtie, Correlated, DomainTable, Eq, Exists, Forall,
    Formula, Member, Neq, Or, Sequent, Star, Term, Var, alpha_eq,
    alpha_eq_all, bound_vars, free_vars, is_singleton_literal, term_state,
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
LEAVES = frozenset({RuleId.IDENTITY, RuleId.REFLEXIVITY,
                    RuleId.HYPOTHESIS}) | AXIOMS

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


def _single_formula_slot(s: Sequent, side: str = "succedent") -> Formula:
    slots = s.succedent if side == "succedent" else s.antecedent
    _require(len(slots) == 1, f"expected exactly one {side} item")
    item = slots[0]
    _require(isinstance(item, Formula), f"{side} item must be a formula")
    return item


#: where an equation's connective sits: the parameter naming its position,
#: the side, and the connective's class (the other equations have it in a
#: fixed place)
_CONNECTIVE_AT = {
    RuleId.EQ_FORALL_R: ("slot", "succedent", Forall),
    RuleId.EQ_STAR_R: ("slot", "succedent", Star),
    RuleId.EQ_OR_L: ("index", "antecedent", Or),
    RuleId.EQ_EXISTS_L: ("index", "antecedent", Exists),
    RuleId.EQ_EQUALITY: ("index", "antecedent", Eq),
}


def _find_connective(s: Sequent, rule: RuleId, params: Optional[dict]) -> int:
    key, side, cls = _CONNECTIVE_AT[rule]
    items = getattr(s, side)
    if params and key in params:
        k = params[key]
        if not 0 <= k < len(items):
            raise RuleError(f"{side} position {k} out of range")
        if not isinstance(items[k], cls):
            raise RuleError(f"{side} item {k} is not a {cls.__name__}")
        return k
    hits = [i for i, f in enumerate(items) if isinstance(f, cls)]
    if len(hits) != 1:
        raise RuleError(f"no {cls.__name__} item in {side}" if not hits else
                        f"ambiguous {cls.__name__} item, pass {key}=<index>")
    return hits[0]


def _fresh_choice(s: Sequent, params: Optional[dict], key: str = "var") -> str:
    if params and key in params:
        z = params[key]
        if z in free_vars(s):
            raise RuleError(f"variable {z} is not fresh for {render_sequent(s)}")
        return z
    return fresh_var(free_vars(s) | bound_vars(s))


def pick_bound_name(bodies, preferred: str = "x") -> str:
    taken = set()
    for b in bodies:
        taken |= free_vars(b) | bound_vars(b)
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


def _bound_membership(s: Sequent, params: dict) -> int:
    """Position of the membership z in D that a composition binds."""
    m = params.get("member", len(s.antecedent) - 1)
    _require(0 <= m < len(s.antecedent), "no antecedent membership to bind")
    mem = s.antecedent[m]
    _require(isinstance(mem, Member) and isinstance(mem.term, Var),
             "the bound membership must be of the form z in D")
    return m


def _forall_guard(side: Sequent, cfg: TheoryConfig):
    if not cfg.right_contexts_in_forall and len(side.succedent) != 1:
        raise RuleError(
            "universal quantifier takes no right context in basic mode "
            "(enable classical right contexts)")


# ---------------------------------------------------------------------------
# equation rewrites: decompose (connective side -> plain side) and compose

def decompose_forall(s: Sequent, params: Optional[dict],
                     cfg: TheoryConfig) -> list:
    k = _find_connective(s, RuleId.EQ_FORALL_R, params)
    _forall_guard(s, cfg)
    q = s.succedent[k]
    z = _fresh_choice(s, params)
    body = subst_formula(q.body, q.var, Var(z))
    succ = s.succedent[:k] + (body,) + s.succedent[k + 1:]
    return [Sequent(s.antecedent + (Member(Var(z), q.domain),), succ)]


def compose_forall(s: Sequent, params: Optional[dict],
                   cfg: TheoryConfig) -> Sequent:
    params = params or {}
    m = _bound_membership(s, params)
    mem = s.antecedent[m]
    z = mem.term.name
    ant = s.antecedent[:m] + s.antecedent[m + 1:]
    candidates = [params["slot"]] if "slot" in params else [
        i for i, f in enumerate(s.succedent)
        if isinstance(f, Formula) and z in free_vars(f)]
    _require(len(candidates) >= 1, f"no succedent slot mentions {z}")
    _require(len(candidates) == 1,
             f"ambiguous slot for binding {z}, pass slot=<index>")
    k = candidates[0]
    body = s.succedent[k]
    _require(isinstance(body, Formula), "cannot quantify a context variable")
    rest = Sequent(ant, s.succedent[:k] + s.succedent[k + 1:])
    _require(z not in free_vars(rest),
             f"variable {z} is free in the remaining sequent")
    x = params.get("bound") or pick_bound_name([body])
    _require(x not in free_vars(body) - {z} and x not in bound_vars(body)
             or x == z,
             f"bound name {x} would capture in {render_sequent(s)}")
    result = Sequent(ant, s.succedent[:k]
                     + (Forall(x, mem.domain, subst_formula(body, z, Var(x))),)
                     + s.succedent[k + 1:])
    _forall_guard(result, cfg)
    return result


def decompose_and(s: Sequent, params: Optional[dict]) -> list:
    f = _single_formula_slot(s)
    _require(isinstance(f, And), "succedent is not a conjunction")
    return [Sequent(s.antecedent, (f.left,)),
            Sequent(s.antecedent, (f.right,))]


def compose_and(premises: Sequence[Sequent]) -> Sequent:
    _require(len(premises) == 2, "conjunction needs two premises")
    a = _single_formula_slot(premises[0])
    b = _single_formula_slot(premises[1])
    _require(alpha_eq_all(premises[0].antecedent, premises[1].antecedent),
             "conjunction premises must share the same context")
    return Sequent(premises[0].antecedent, (And(a, b),))


def decompose_star(s: Sequent, params: Optional[dict]) -> list:
    k = _find_connective(s, RuleId.EQ_STAR_R, params)
    f = s.succedent[k]
    succ = s.succedent[:k] + (f.left, f.right) + s.succedent[k + 1:]
    return [Sequent(s.antecedent, succ)]


def compose_star(s: Sequent, params: Optional[dict]) -> Sequent:
    params = params or {}
    if "slot" in params:
        k = params["slot"]
    else:
        _require(len(s.succedent) == 2,
                 "pass slot=<index> to pick the two merged slots")
        k = 0
    _require(0 <= k < len(s.succedent) - 1, f"slot {k} out of range")
    a, b = s.succedent[k], s.succedent[k + 1]
    _require(isinstance(a, Formula) and isinstance(b, Formula),
             "merged slots must both be formulas")
    succ = s.succedent[:k] + (Star(a, b),) + s.succedent[k + 2:]
    return Sequent(s.antecedent, succ)


def decompose_bot(s: Sequent, params: Optional[dict]) -> list:
    _require(len(s.succedent) >= 2, "falsum needs a non-empty right context")
    last = s.succedent[-1]
    _require(isinstance(last, Bot), "last succedent slot is not a falsum")
    return [Sequent(s.antecedent, s.succedent[:-1])]


def compose_bot(s: Sequent, params: Optional[dict]) -> Sequent:
    params = params or {}
    _require(len(s.succedent) >= 1, "falsum needs a non-empty right context")
    return Sequent(s.antecedent, s.succedent + (Bot(params.get("label")),))


def decompose_or(s: Sequent, params: Optional[dict]) -> list:
    j = _find_connective(s, RuleId.EQ_OR_L, params)
    f = s.antecedent[j]
    return [Sequent(s.antecedent[:j] + (f.left,) + s.antecedent[j + 1:],
                    s.succedent),
            Sequent(s.antecedent[:j] + (f.right,) + s.antecedent[j + 1:],
                    s.succedent)]


def compose_or(premises: Sequence[Sequent], params: Optional[dict]) -> Sequent:
    _require(len(premises) == 2, "disjunction needs two premises")
    p, q = premises
    _require(len(p.antecedent) == len(q.antecedent)
             and alpha_eq_all(p.succedent, q.succedent),
             "disjunction premises must agree outside the disjuncts")
    diffs = [i for i in range(len(p.antecedent))
             if not alpha_eq(p.antecedent[i], q.antecedent[i])]
    if params and "index" in params:
        j = params["index"]
        _require(diffs in ([j], []), "premises differ away from index")
    else:
        _require(len(diffs) == 1, "premises must differ in exactly one item")
        j = diffs[0]
    a, b = p.antecedent[j], q.antecedent[j]
    _require(isinstance(a, Formula) and isinstance(b, Formula),
             "disjuncts must be formulas")
    return Sequent(p.antecedent[:j] + (Or(a, b),) + p.antecedent[j + 1:],
                   p.succedent)


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


def compose_exists(s: Sequent, params: Optional[dict]) -> Sequent:
    params = params or {}
    members = [i for i, f in enumerate(s.antecedent)
               if isinstance(f, Member) and isinstance(f.term, Var)]
    _require(members, "no variable membership to close under the existential")
    im = params.get("member", members[-1])
    mem = s.antecedent[im]
    _require(isinstance(mem, Member) and isinstance(mem.term, Var),
             "member index does not name a variable membership")
    z = mem.term.name
    ib = params.get("body", im - 1)
    _require(0 <= ib < len(s.antecedent) and ib != im,
             "no body item for the existential")
    body = s.antecedent[ib]
    _require(isinstance(body, Formula), "existential body must be a formula")
    keep = [f for i, f in enumerate(s.antecedent) if i not in (im, ib)]
    _require(z not in free_vars(Sequent(tuple(keep), s.succedent)),
             f"variable {z} is free outside the existential body")
    x = params.get("bound") or pick_bound_name([body])
    ex = Exists(x, mem.domain, subst_formula(body, z, Var(x)))
    at = params.get("slot", min(im, ib))
    keep.insert(min(at, len(keep)), ex)
    return Sequent(tuple(keep), s.succedent)


def decompose_equality(s: Sequent, params: Optional[dict]) -> list:
    _require(params is not None and "term" in params,
             "equality abstraction needs term=<t>")
    t = params["term"]
    _require(isinstance(t, Term), "term parameter must be a term")
    if "var" in params:
        z = _fresh_choice(s, params)
    else:
        z = fresh_var(free_vars(s) | bound_vars(s) | free_vars(t))
    _require(not (isinstance(t, Var) and t.name == z),
             "abstracted term and fresh variable coincide")
    abstracted = replace_term_occurrences(s, t, Var(z),
                                          params.get("positions"))
    return [Sequent(abstracted.antecedent + (Eq(Var(z), t),),
                    abstracted.succedent)]


def compose_equality(s: Sequent, params: Optional[dict]) -> Sequent:
    params = params or {}
    if "index" in params:
        candidates = [params["index"]]
    else:
        candidates = [i for i in range(len(s.antecedent) - 1, -1, -1)
                      if isinstance(s.antecedent[i], Eq)
                      and isinstance(s.antecedent[i].left, Var)]
    for j in candidates:
        _require(0 <= j < len(s.antecedent), f"index {j} out of range")
        item = s.antecedent[j]
        if not (isinstance(item, Eq) and isinstance(item.left, Var)):
            continue
        z, t = item.left.name, item.right
        if isinstance(t, Var) and t.name == z:
            continue
        rest = Sequent(s.antecedent[:j] + s.antecedent[j + 1:], s.succedent)
        return subst_sequent(rest, z, t)
    raise RuleError("no antecedent equality z = t to eliminate")


def decompose_bowtie(s: Sequent, params: Optional[dict]) -> list:
    f = _single_formula_slot(s)
    _require(isinstance(f, Bowtie), "succedent is not a bowtie formula")
    z = _fresh_choice(s, params)
    left = subst_formula(f.left, f.var, Var(z))
    right = subst_formula(f.right, f.var, Var(z))
    slot = Correlated(correlation_label(f.domain), left, right)
    return [Sequent(s.antecedent + (Member(Var(z), f.domain),), (slot,))]


def compose_bowtie(s: Sequent, params: Optional[dict]) -> Sequent:
    params = params or {}
    _require(len(s.succedent) == 1 and isinstance(s.succedent[0], Correlated),
             "succedent must be a single correlated slot")
    slot = s.succedent[0]
    m = _bound_membership(s, params)
    mem = s.antecedent[m]
    _require(correlation_label(mem.domain) == slot.label,
             f"correlation label {slot.label} does not match domain {mem.domain}")
    z = mem.term.name
    ant = s.antecedent[:m] + s.antecedent[m + 1:]
    _require(z not in free_vars(Sequent(ant, ())),
             f"variable {z} is free in the context")
    x = params.get("bound") or pick_bound_name([slot.left, slot.right])
    f = Bowtie(x, mem.domain, subst_formula(slot.left, z, Var(x)),
               subst_formula(slot.right, z, Var(x)))
    return Sequent(ant, (f,))


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
    if eq is RuleId.EQ_AND_R:
        return [compose_and(seqs)]
    if eq is RuleId.EQ_OR_L:
        return [compose_or(seqs, params)]
    _require(len(seqs) == 1, f"{eq.value} composes from a single sequent")
    one = seqs[0]
    if eq is RuleId.EQ_FORALL_R:
        return [compose_forall(one, params, cfg)]
    if eq is RuleId.EQ_STAR_R:
        return [compose_star(one, params)]
    if eq is RuleId.EQ_BOT_R:
        return [compose_bot(one, params)]
    if eq is RuleId.EQ_EXISTS_L:
        return [compose_exists(one, params)]
    if eq is RuleId.EQ_EQUALITY:
        return [compose_equality(one, params)]
    return [compose_bowtie(one, params)]


# ---------------------------------------------------------------------------
# dualize

_DUAL_FRAGMENT = (Atom, Member, Eq, Neq, And, Or, Forall, Exists)


def _dual_formula(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return f
    if isinstance(f, Member):
        return f
    if isinstance(f, Eq):
        return Neq(f.left, f.right)
    if isinstance(f, Neq):
        return Eq(f.left, f.right)
    if isinstance(f, And):
        return Or(_dual_formula(f.left), _dual_formula(f.right))
    if isinstance(f, Or):
        return And(_dual_formula(f.left), _dual_formula(f.right))
    if isinstance(f, Forall):
        return Exists(f.var, f.domain, _dual_formula(f.body))
    if isinstance(f, Exists):
        return Forall(f.var, f.domain, _dual_formula(f.body))
    raise FragmentError(
        f"formula outside the dualizable fragment: {type(f).__name__}")


def dualize(s: Sequent) -> Sequent:
    """Swap the two sides, dualizing every formula (& <-> \\/, forall <->
    exists, = <-> !=; atoms and memberships are self-dual).  Top-level
    antecedent memberships are pinned to the antecedent, which is what
    makes the transform match the displayed duality steps; on sequents in
    membership-first form the transform is an involution.
    """
    for item in s.antecedent:
        if not isinstance(item, _DUAL_FRAGMENT):
            raise FragmentError(
                f"antecedent item outside the dualizable fragment: "
                f"{type(item).__name__}")
    for slot in s.succedent:
        if isinstance(slot, Member):
            raise FragmentError(
                "top-level succedent membership cannot be dualized")
        if not isinstance(slot, _DUAL_FRAGMENT):
            raise FragmentError(
                f"succedent item outside the dualizable fragment: "
                f"{type(slot).__name__}")
    members = tuple(i for i in s.antecedent if isinstance(i, Member))
    others = tuple(i for i in s.antecedent if not isinstance(i, Member))
    new_ant = members + tuple(_dual_formula(f) for f in reversed(s.succedent))
    new_succ = tuple(_dual_formula(f) for f in reversed(others))
    return Sequent(new_ant, new_succ)
