"""Derivation trees and the proof checker.

A derivation is a tree (shared subtrees allowed) of rule applications.
``check`` walks it bottom-up, validates every node under a theory
configuration and a domain declaration table, and reports the first
failure, the open assumptions, and the axioms used.

The definitory equations are defined once, in ``rules``.  The checker
validates an equation step by recomputing it with the ``rules`` rewrite
and comparing the result with the other side up to alpha-equivalence.
The step's own parameters pass through unchanged; the missing ones range
over every combination of the values each can take on the two sides.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

from ..errors import DomainError, RuleError
from ..syntax.ast import (
    BINDERS, ContextVar, DomainTable, Eq, Exists, Formula, Member, Sequent,
    Sharp, Var, alpha_eq, alpha_eq_all, is_closed, sharp_domain_name,
    term_state,
)
from ..syntax.printer import render_sequent
from ..syntax.subst import subst_formula, subst_sequent
from .rules import (
    AXIOMS, BACKWARD, FORWARD, RuleId, TheoryConfig, Verdict,
    _CONNECTIVE_AT, _DECOMPOSE, _element_matches, _require, compose_equality,
    dualize, flatten_or,
)


@dataclass(frozen=True)
class Derivation:
    """One rule application; leaves are identities, axioms or hypotheses."""

    conclusion: Sequent
    rule: RuleId
    direction: Optional[str] = None
    params: dict = field(default_factory=dict)
    premises: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(self.premises))

    def walk(self):
        """Post-order walk, visiting shared nodes once."""
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            elif id(node) not in seen:
                seen.add(id(node))
                stack.append((node, True))
                stack.extend((p, False) for p in reversed(node.premises))


@dataclass
class StepReport:
    index: int
    rule: RuleId
    direction: Optional[str]
    conclusion: Sequent
    ok: bool
    reason: Optional[str] = None


@dataclass
class CheckReport:
    accepted: bool
    steps: list
    first_failure: Optional[StepReport]
    assumptions: list
    axioms_used: list
    notes: list

    def summary(self) -> str:
        if self.accepted:
            return "ACCEPTED"
        f = self.first_failure
        return (f"REJECTED: {f.reason} at step {f.index} "
                f"({f.rule.value} :: {render_sequent(f.conclusion)})")


# ---------------------------------------------------------------------------
# node validation
#
# Every validator takes the arguments of validate_step, which has already
# checked the number of premises.

def _conc_of(premises) -> list:
    return [p.conclusion if isinstance(p, Derivation) else p for p in premises]


#: the pieces a backward step may conclude, by its pick parameter
_PICK = {None: slice(None), "left": slice(1), "right": slice(-1, None)}


def _validate_equation(c: Sequent, rule: RuleId, direction: str,
                       premises: Sequence[Sequent], params: dict,
                       cfg: TheoryConfig, table: DomainTable) -> None:
    """Recompute the step with ``rules`` and compare it with the other side.

    The connective side is decomposed, except for the equality equation,
    whose connective side (the one with the antecedent z = t) is composed:
    a script need not record which occurrences of t were abstracted (when
    positions= does, the plain side must decompose to it as well).
    """
    equality = rule is RuleId.EQ_EQUALITY
    on_conclusion = (direction == FORWARD) != equality
    connective, plain = (c, premises[0]) if on_conclusion else (premises[0], c)
    picked = _PICK.get(params.get("pick"))
    failure = None
    recomputed = False
    for p in _completions(rule, connective, plain, params) or [params]:
        try:
            if equality:
                pieces = [compose_equality(connective, p)]
                _require("positions" not in p or alpha_eq_all(
                    _DECOMPOSE[rule](plain, p, cfg), [connective]),
                    "positions= does not abstract the step's occurrences")
            else:
                pieces = _DECOMPOSE[rule](connective, p, cfg)
        except RuleError as exc:
            failure = failure or exc
            continue
        recomputed = True
        if on_conclusion:
            if alpha_eq_all(pieces, premises):
                return
        elif picked and any(alpha_eq(piece, c) for piece in pieces[picked]):
            return
    if failure is not None and not recomputed:
        raise failure
    raise RuleError(f"the sides of the step do not match {rule.value}")


#: rule -> the parameters _completions can supply, in the order of its product
_COMPLETABLE = {
    rule: tuple(k for k in (key, *(("member", "body") if cls is Exists else ()),
                            *(("var",) if cls in BINDERS else ()))
                if isinstance(k, str))
    for rule, (key, _, cls) in _CONNECTIVE_AT.items()
}


def _completions(rule: RuleId, connective: Sequent, plain: Sequent,
                 params: dict) -> list:
    """The step's parameters, one set per reading of the two sides: every
    combination of the values the missing ones can take.  They are the
    connective's position among the items of its class, a binder's variable
    from the variable memberships on the plain side and, for the
    existential, the positions of that membership and of the body."""
    missing = [k for k in _COMPLETABLE[rule] if k not in params]
    if not missing:
        return [params]
    key, side, cls = _CONNECTIVE_AT[rule]
    ant = plain.antecedent
    values = {key: (i for i, f in enumerate(getattr(connective, side))
                    if isinstance(f, cls))}
    if cls in BINDERS:
        names = {i: f.term.name for i, f in reversed(list(enumerate(ant)))
                 if isinstance(f, Member) and isinstance(f.term, Var)}
        if cls is Exists:
            values.update(member=list(names), body=range(len(ant)))
        values["var"] = list(dict.fromkeys(names.values()))
    options = []
    for combo in product(*(values[k] for k in missing)):
        p = dict(params, **dict(zip(missing, combo)))
        if cls is Exists and ("body" in missing and p["body"] == p["member"]
                              or "var" in missing
                              and names.get(p["member"]) != p["var"]):
            continue
        options.append(p)
    return options


# -- one-directional rules ---------------------------------------------------

def _validate_identity(c: Sequent, rule: RuleId, direction: Optional[str],
                       premises: Sequence[Sequent], params: dict,
                       cfg: TheoryConfig, table: DomainTable) -> None:
    _require(len(c.antecedent) == 1 and len(c.succedent) == 1,
             "identity is A |- A")
    a, b = c.antecedent[0], c.succedent[0]
    _require(isinstance(a, Formula) and isinstance(b, Formula),
             "identity holds between formulas")
    _require(alpha_eq(a, b), "identity needs the same formula on both sides")


def _validate_reflexivity(c: Sequent, rule: RuleId, direction: Optional[str],
                          premises: Sequence[Sequent], params: dict,
                          cfg: TheoryConfig, table: DomainTable) -> None:
    _require(len(c.antecedent) == 0, "reflexivity has no premises on the left")
    _require(len(c.succedent) == 1 and isinstance(c.succedent[0], Eq),
             "reflexivity concludes |- t = t")
    eq = c.succedent[0]
    _require(eq.left == eq.right, "reflexivity needs both sides equal")


def _positions(params: dict, key: str, items: tuple):
    """The in-range position a step's key= gives, or every position."""
    if key in params:
        return [params[key]] if 0 <= params[key] < len(items) else []
    return range(len(items))


def _validate_cut(c: Sequent, rule: RuleId, direction: Optional[str],
                  premises: Sequence[Sequent], params: dict,
                  cfg: TheoryConfig, table: DomainTable) -> None:
    left, right = premises
    _require(len(left.succedent) == 1 and isinstance(left.succedent[0], Formula),
             "first cut premise must conclude a single formula")
    cut_formula = params.get("cut", left.succedent[0])
    _require(alpha_eq(cut_formula, left.succedent[0]),
             "cut formula does not match the first premise")
    _require(alpha_eq_all(right.succedent, c.succedent),
             "cut keeps the succedent of the second premise")
    for j in _positions(params, "index", right.antecedent):
        if not (isinstance(right.antecedent[j], Formula)
                and alpha_eq(right.antecedent[j], cut_formula)):
            continue
        spliced = (right.antecedent[:j] + left.antecedent
                   + right.antecedent[j + 1:])
        if alpha_eq_all(spliced, c.antecedent):
            return
    raise RuleError("conclusion does not splice the cut premises")


def _subst_pairs(c: Sequent, premise: Sequent, params: dict, key: str):
    """The (variable, value) pairs a substitution step may have used: the
    step's var= and key= parameters, or else every variable membership of
    the premise whose place the conclusion fills with a membership of a
    closed term, if it agrees with the one of the two the step gives.  The
    value is that term, or with key "state" (forgetful substitution) its
    state label.  A variable that also names a context metavariable of the
    premise rejects the step once its pair is reached."""
    forgetful = key == "state"
    if "var" in params and key in params:
        pairs = [(params["var"], params[key])]
    else:
        pairs = [(pm.term.name, term_state(pc.term) if forgetful else pc.term)
                 for pm, pc in zip(premise.antecedent, c.antecedent)
                 if isinstance(pm, Member) and isinstance(pm.term, Var)
                 and isinstance(pc, Member) and is_closed(pc.term)
                 and pc.domain == (sharp_domain_name(pm.domain) if forgetful
                                   else pm.domain)]
        pairs = [(v, value) for v, value in pairs
                 if params.get("var", v) == v
                 and params.get(key, value) == value]
    _require(bool(pairs), f"cannot determine the substitution; "
                          f"pass var=<v> {key}=<{key[0]}>")
    for v, value in pairs:
        if any(isinstance(i, ContextVar) and i.name == v
               for i in premise.antecedent + premise.succedent):
            raise RuleError(
                f"variable {v} also names a context metavariable; its "
                f"occurrences there are unknowable")
        yield v, value


def _validate_subst(c: Sequent, rule: RuleId, direction: Optional[str],
                    premises: Sequence[Sequent], params: dict,
                    cfg: TheoryConfig, table: DomainTable) -> None:
    premise = premises[0]
    for v, t in _subst_pairs(c, premise, params, "term"):
        if not is_closed(t):
            raise RuleError(f"substituted term {t!r} is not closed")
        if alpha_eq(subst_sequent(premise, v, t), c):
            return
    raise RuleError("conclusion is not a substitution instance of the premise")


def _validate_f_subst(c: Sequent, rule: RuleId, direction: Optional[str],
                      premises: Sequence[Sequent], params: dict,
                      cfg: TheoryConfig, table: DomainTable) -> None:
    if not cfg.singleton_axioms:
        raise RuleError("forgetful substitution is disabled: it rests on "
                        "the singleton axioms (singleton_axioms off)")
    premise = premises[0]
    for v, s in _subst_pairs(c, premise, params, "state"):
        mem_domains = [i.domain for i in premise.antecedent
                       if isinstance(i, Member) and isinstance(i.term, Var)
                       and i.term.name == v]
        if not mem_domains:
            continue
        domain = _lookup(table.resolve, mem_domains[-1], {})
        _require(s in domain.labels,
                 f"state {s} is not an outcome of domain {domain.name}")
        if alpha_eq(subst_sequent(premise, v, Sharp(s), mode="forgetful"), c):
            return
    raise RuleError("conclusion is not a forgetful-substitution instance "
                    "of the premise")


def _validate_exists_r(c: Sequent, rule: RuleId, direction: Optional[str],
                       premises: Sequence[Sequent], params: dict,
                       cfg: TheoryConfig, table: DomainTable) -> None:
    premise = premises[0]
    _require(len(c.succedent) == 1 and isinstance(c.succedent[0], Exists),
             "conclusion must be a single existential formula")
    _require(len(premise.succedent) == 1
             and isinstance(premise.succedent[0], Formula),
             "premise must conclude a single formula")
    ex = c.succedent[0]
    a = premise.succedent[0]
    same_ctx = alpha_eq_all(c.antecedent, premise.antecedent)
    extended = (len(c.antecedent) == len(premise.antecedent) + 1
                and alpha_eq_all(c.antecedent[:-1], premise.antecedent))
    _require(same_ctx or extended,
             "conclusion context must extend the premise by at most the "
             "witness membership")
    # an extended context holds the witness membership last
    candidates = c.antecedent[-1:] if extended else c.antecedent
    witnesses = [i.term for i in candidates
                 if isinstance(i, Member) and i.domain == ex.domain
                 and ("term" not in params or i.term == params["term"])]
    for t in witnesses:
        if alpha_eq(subst_formula(ex.body, ex.var, t), a):
            return
    raise RuleError("no witness membership matches the premise formula")


def _validate_weaken_l(c: Sequent, rule: RuleId, direction: Optional[str],
                       premises: Sequence[Sequent], params: dict,
                       cfg: TheoryConfig, table: DomainTable) -> None:
    premise = premises[0]
    _require(alpha_eq_all(c.succedent, premise.succedent),
             "weakening keeps the succedent")
    _require(len(c.antecedent) == len(premise.antecedent) + 1,
             "weakening adds exactly one antecedent item")
    for j in _positions(params, "position", c.antecedent):
        rest = c.antecedent[:j] + c.antecedent[j + 1:]
        if alpha_eq_all(rest, premise.antecedent):
            if "formula" in params and not alpha_eq(params["formula"],
                                                    c.antecedent[j]):
                continue
            return
    raise RuleError("conclusion is not a one-formula weakening of the premise")


def _validate_dualize(c: Sequent, rule: RuleId, direction: Optional[str],
                      premises: Sequence[Sequent], params: dict,
                      cfg: TheoryConfig, table: DomainTable) -> None:
    _require(alpha_eq(dualize(premises[0]), c),
             "conclusion is not the dual of the premise")


# -- axioms -------------------------------------------------------------------

def _lookup(lookup, name: str, params: dict, sharp: bool = False):
    """Resolve the domain of an axiom's conclusion.  An undeclared one
    rejects the step, and so does a domain= that names another domain (for
    a sharp fact, another set than the one whose companion it is in)."""
    if "domain" in params:
        named = params["domain"]
        expected = sharp_domain_name(named) if sharp else named
        _require(expected == name, f"the conclusion is in {name}, not in "
                                   f"{expected} (domain={named})")
    try:
        return lookup(name)
    except DomainError as exc:
        raise RuleError(str(exc)) from exc


def _validate_ax_focus(c: Sequent, rule: RuleId, direction: Optional[str],
                       premises: Sequence[Sequent], params: dict,
                       cfg: TheoryConfig, table: DomainTable) -> None:
    """z in D |- z = t1 \\/ ... \\/ z = tm, the elements of a focused D in
    declared order.  The singleton axiom z in {u} |- z = u is the same
    schema with a single disjunct, so D must hold one element; it also needs
    the singleton axioms, under which every singleton is focused."""
    singleton = rule is RuleId.AX_SINGLETON
    name = "singleton axiom" if singleton else "focus axiom"
    _require(len(c.antecedent) == 1 and len(c.succedent) == 1,
             "singleton axiom is z in {u} |- z = u" if singleton else
             "focus axiom is z in D |- z = t1 \\/ ... \\/ z = tm")
    mem, disj = c.antecedent[0], c.succedent[0]
    _require(isinstance(mem, Member) and isinstance(mem.term, Var),
             f"{name} needs a variable membership on the left")
    domain = _lookup(table.resolve, mem.domain, params)
    if singleton:
        _require(cfg.singleton_axioms,
                 f"{name} is disabled (singleton_axioms off)")
    if not cfg.is_focused(mem.domain, table):
        raise RuleError(f"domain {mem.domain} is not declared focused "
                        f"(focus axiom unavailable)")
    parts = [disj] if singleton else flatten_or(disj)
    _require(len(parts) == len(domain.elements),
             f"focus disjunction must list the {len(domain.elements)} "
             f"element(s) of {mem.domain}")
    z = mem.term.name
    for part, element in zip(parts, domain.elements):
        _require(isinstance(part, Eq) and isinstance(part.left, Var)
                 and part.left.name == z,
                 "each disjunct must equate the membership variable")
        _require(_element_matches(part.right, element),
                 "disjuncts must name the elements in declared order")


def _validate_ax_member(c: Sequent, rule: RuleId, direction: Optional[str],
                        premises: Sequence[Sequent], params: dict,
                        cfg: TheoryConfig, table: DomainTable) -> None:
    """|- t in D for an element t of D.  The sharp fact |- #s in D^f is the
    same schema over the sharp companion set D^f = { #s : s an outcome of
    D }, which rests on the singleton axioms."""
    sharp = rule is RuleId.AX_SHARP_MEMBER
    _require(len(c.antecedent) == 0 and len(c.succedent) == 1,
             "membership fact is |- t in D")
    mem = c.succedent[0]
    _require(isinstance(mem, Member), "membership fact concludes t in D")
    if sharp:
        _require(cfg.singleton_axioms, "sharp membership facts are disabled "
                                       "(singleton_axioms off)")
        labels = _lookup(table.sharp_labels, mem.domain, params, sharp)
        elements = [Sharp(s) for s in labels]
    else:
        elements = _lookup(table.resolve, mem.domain, params).elements
    _require(any(_element_matches(mem.term, e) for e in elements),
             f"term does not name an element of {mem.domain}")


def _validate_hypothesis(c: Sequent, rule: RuleId, direction: Optional[str],
                         premises: Sequence[Sequent], params: dict,
                         cfg: TheoryConfig,
                         table: DomainTable) -> None:
    """Any sequent may be assumed; ``check`` lists it as open."""


# ---------------------------------------------------------------------------
# dispatch

#: rule -> (validator, number of premises); for an equation the number is
#: that of a forward step, and a backward step always has one premise
_RULES = {
    RuleId.EQ_FORALL_R: (_validate_equation, 1),
    RuleId.EQ_AND_R: (_validate_equation, 2),
    RuleId.EQ_STAR_R: (_validate_equation, 1),
    RuleId.EQ_BOT_R: (_validate_equation, 1),
    RuleId.EQ_OR_L: (_validate_equation, 2),
    RuleId.EQ_EXISTS_L: (_validate_equation, 1),
    RuleId.EQ_EQUALITY: (_validate_equation, 1),
    RuleId.EQ_BOWTIE_R: (_validate_equation, 1),
    RuleId.IDENTITY: (_validate_identity, 0),
    RuleId.REFLEXIVITY: (_validate_reflexivity, 0),
    RuleId.CUT: (_validate_cut, 2),
    RuleId.SUBST: (_validate_subst, 1),
    RuleId.F_SUBST: (_validate_f_subst, 1),
    RuleId.EXISTS_R: (_validate_exists_r, 1),
    RuleId.WEAKEN_L: (_validate_weaken_l, 1),
    RuleId.DUALIZE: (_validate_dualize, 1),
    RuleId.AX_SINGLETON: (_validate_ax_focus, 0),
    RuleId.AX_FOCUS: (_validate_ax_focus, 0),
    RuleId.AX_MEMBER: (_validate_ax_member, 0),
    RuleId.AX_SHARP_MEMBER: (_validate_ax_member, 0),
    RuleId.HYPOTHESIS: (_validate_hypothesis, 0),
}


def validate_step(conclusion: Sequent, rule: RuleId, direction: Optional[str],
                  premises: Sequence[Sequent], params: Optional[dict] = None,
                  cfg: Optional[TheoryConfig] = None,
                  table: Optional[DomainTable] = None) -> None:
    """Raise RuleError unless the step is a valid application."""
    params = params or {}
    cfg = cfg or TheoryConfig()
    table = table or DomainTable()
    premises = _conc_of(premises)
    validator, count = _RULES[rule]
    if validator is _validate_equation:
        if direction == BACKWARD:
            count = 1
        elif direction != FORWARD:
            raise RuleError(f"{rule.value} needs direction forward|backward")
    if len(premises) != count:
        raise RuleError(f"{rule.value} takes {count} premise(s), "
                        f"got {len(premises)}")
    validator(conclusion, rule, direction, premises, params, cfg, table)


def rule_step(conclusion: Sequent, rule: RuleId, premises: Sequence[Sequent],
              params: Optional[dict] = None, cfg: Optional[TheoryConfig] = None,
              table: Optional[DomainTable] = None,
              direction: Optional[str] = None) -> Verdict:
    """Validity verdict for one rule application (premises in script order)."""
    try:
        validate_step(conclusion, rule, direction, premises, params, cfg, table)
        return Verdict(True)
    except RuleError as exc:
        return Verdict(False, str(exc))


def check(derivation: Derivation, cfg: Optional[TheoryConfig] = None,
          table: Optional[DomainTable] = None) -> CheckReport:
    """Validate every node; failures become report entries, not exceptions."""
    cfg = cfg or TheoryConfig()
    steps = []
    first_failure = None
    assumptions = []
    axioms_used = []
    notes = []
    for index, node in enumerate(derivation.walk(), start=1):
        try:
            validate_step(node.conclusion, node.rule, node.direction,
                          node.premises, node.params, cfg, table)
            ok, reason = True, None
        except RuleError as exc:
            ok, reason = False, str(exc)
        entry = StepReport(index, node.rule, node.direction, node.conclusion,
                           ok, reason)
        steps.append(entry)
        if not ok and first_failure is None:
            first_failure = entry
        if node.rule is RuleId.HYPOTHESIS:
            assumptions.append(node.conclusion)
        if node.rule in AXIOMS:
            name = node.rule.value
            dom = _axiom_domain_name(node.conclusion)
            axioms_used.append(f"{name}({dom})" if dom else name)
        if node.rule is RuleId.DUALIZE:
            notes.append(f"step {index}: duality used as an explicit rule")
        if node.rule is RuleId.AX_SHARP_MEMBER:
            notes.append(f"step {index}: sharp membership taken as a "
                         f"declared fact and cut against")
    return CheckReport(first_failure is None, steps, first_failure,
                       assumptions, sorted(set(axioms_used)), notes)


def _axiom_domain_name(c: Sequent) -> Optional[str]:
    for item in c.antecedent + c.succedent:
        if isinstance(item, Member):
            return item.domain
    return None
