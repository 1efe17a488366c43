"""Derivation trees and the proof checker.

A derivation is a tree (shared subtrees allowed) of rule applications.
``check`` walks it bottom-up, validates every node under a theory
configuration and a domain declaration table, and reports the first
failure, the open assumptions, and the axioms used.

Every rule with premises is one function in ``rules``, which the theorem
builders build with too.  The checker validates such a step in one loop:
it completes the step's parameters (its own pass through unchanged, the
missing ones range over every value each can take), recomputes the step
with the rule's function and compares with ``alpha_eq``.  Leaves are
checked against their schemas.
"""
from __future__ import annotations

from itertools import product
from typing import Optional, Sequence

from ..errors import RuleError
from ..syntax.ast import (
    BINDERS, DomainTable, Eq, Exists, Formula, Member, Sequent, Sharp, Term,
    Var, _Frozen, _Record, _setters, alpha_eq, alpha_eq_all, is_closed,
    sharp_domain_name, term_state,
)
from ..syntax.parser import name_fault
from ..syntax.printer import render_sequent
from .rules import (
    AXIOMS, BACKWARD, EQUATIONS, FORWARD, RuleId, TheoryConfig, Verdict,
    _CONNECTIVE_AT, _DECOMPOSE, _PARAM_KINDS, _TWO_PREMISES, _element_matches,
    _lookup, _require, conclude, flatten_or,
)


class Derivation(_Frozen):
    """One rule application; leaves are identities, axioms or hypotheses.
    Compared by identity."""

    __slots__ = ("conclusion", "rule", "direction", "params", "premises")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, conclusion: Sequent, rule: RuleId,
                 direction: Optional[str] = None,
                 params: Optional[dict] = None, premises: tuple = ()):
        _set_conclusion(self, conclusion)
        _set_rule(self, rule)
        _set_direction(self, direction)
        _set_params(self, {} if params is None else params)
        _set_premises(self, tuple(premises))

    def __repr__(self):
        return f"Derivation({self.rule.value}, {self.conclusion!r})"

    def walk(self):
        """Post-order walk, visiting shared nodes once."""
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                yield node
            elif node not in seen:
                seen.add(node)
                stack.append((node, True))
                stack.extend((p, False) for p in reversed(node.premises))


(_set_conclusion, _set_rule, _set_direction, _set_params,
 _set_premises) = _setters(Derivation)


class StepReport(_Record):
    __slots__ = ("index", "rule", "direction", "conclusion", "ok", "reason")

    def __init__(self, index: int, rule: RuleId, direction: Optional[str],
                 conclusion: Sequent, ok: bool, reason: Optional[str] = None):
        self.index = index
        self.rule = rule
        self.direction = direction
        self.conclusion = conclusion
        self.ok = ok
        self.reason = reason


class CheckReport(_Record):
    __slots__ = ("accepted", "steps", "first_failure", "assumptions",
                 "axioms_used", "notes")

    def __init__(self, accepted: bool, steps: list,
                 first_failure: Optional[StepReport], assumptions: list,
                 axioms_used: list, notes: list):
        self.accepted = accepted
        self.steps = steps
        self.first_failure = first_failure
        self.assumptions = assumptions
        self.axioms_used = axioms_used
        self.notes = notes

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

def _validate_premised(c: Sequent, rule: RuleId, direction: Optional[str],
                       premises: Sequence[Sequent], params: dict,
                       cfg: TheoryConfig, table: DomainTable) -> None:
    """Recompute the step with its function in ``rules`` under each
    completion of its parameters, and compare up to alpha-equivalence.

    An equation step whose conclusion is its connective side (a forward
    step, or a backward one for equality, whose direction word reads the
    other way) has the conclusion decomposed and compared with its
    premises.  ``conclude`` computes the conclusion of any other step, so
    pick= means what it means to the builders.  When no completion can be
    computed, the first failure is the reason.
    """
    equation = rule in EQUATIONS
    on_conclusion = ((direction == FORWARD) != (rule is RuleId.EQ_EQUALITY)
                     or not equation)
    connective, plain = (c, premises[0]) if on_conclusion else (premises[0], c)

    def matches(p: dict) -> bool:
        if equation and on_conclusion:
            return alpha_eq_all(_DECOMPOSE[rule](connective, p, cfg), premises)
        return alpha_eq(conclude(rule, premises, p, cfg, table, direction), c)

    failure = None
    recomputed = False
    for p in _completions(rule, connective, plain, params):
        try:
            if matches(p):
                return
        except RuleError as exc:
            failure = failure or exc
            continue
        recomputed = True
    if failure is not None and not recomputed:
        raise failure
    raise RuleError(f"the sides of the step do not match {rule.value}")


#: equation -> the parameters _completions can supply, in product order
_COMPLETABLE = {
    rule: tuple(k for k in (key, *(("member", "body") if cls is Exists else ()),
                            *(("var",) if cls in BINDERS else ()))
                if isinstance(k, str))
    for rule, (key, _, cls) in _CONNECTIVE_AT.items()
}


def _completions(rule: RuleId, connective: Sequent, plain: Sequent,
                 params: dict) -> list:
    """The step's parameters, one set per reading of the two sides: every
    combination of the values the missing ones can take.  For an equation
    they are the connective's position among the items of its class, a
    binder's variable from the variable memberships on the plain side and,
    for the existential, the positions of that membership and of the body.
    Any other rule has its conclusion as the connective side: cut's index
    and weaken_l's position range over the positions of its antecedent and
    exists_r's witness over its memberships, and the values no script
    records (exists_r's existential, weaken_l's formula) are read off it."""
    ant = connective.antecedent
    if rule is RuleId.CUT:  # the second premise's antecedent is at most one longer
        return [dict(params, index=j) for j in ([params["index"]]
                if "index" in params else range(len(ant) + 1))]
    if rule is RuleId.WEAKEN_L:
        return [dict({"formula": ant[j]}, **dict(params, position=j))
                for j in ([params["position"]] if "position" in params
                          else range(len(ant))) if 0 <= j < len(ant)]
    if rule is RuleId.EXISTS_R:
        ex = connective.succedent[0] if len(connective.succedent) == 1 else None
        _require(isinstance(ex, Exists),
                 "conclusion must be a single existential formula")
        return [dict(params, term=f.term, existential=ex) for f in ant
                if isinstance(f, Member) and f.domain == ex.domain
                and params.get("term", f.term) == f.term]
    if rule in (RuleId.SUBST, RuleId.F_SUBST):
        return _subst_pairs(connective, plain, params, "state"
                            if rule is RuleId.F_SUBST else "term")
    missing = [k for k in _COMPLETABLE.get(rule, ()) if k not in params]
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
    return options or [params]


def _subst_pairs(c: Sequent, premise: Sequent, params: dict,
                 key: str) -> list:
    """The parameters of a substitution step, one set per (variable, value)
    pair it may have used: the step's var= and key= parameters, or else
    every variable membership of the premise whose place the conclusion
    fills with a membership of a closed term, if it agrees with the one of
    the two the step gives.  The value is that term, or with key "state"
    (forgetful substitution) its state label."""
    forgetful = key == "state"
    if "var" in params and key in params:
        return [params]
    pairs = [(pm.term.name, term_state(pc.term) if forgetful else pc.term)
             for pm, pc in zip(premise.antecedent, c.antecedent)
             if isinstance(pm, Member) and isinstance(pm.term, Var)
             and isinstance(pc, Member) and is_closed(pc.term)
             and pc.domain == (sharp_domain_name(pm.domain) if forgetful
                               else pm.domain)]
    options = [dict(params, var=v, **{key: value}) for v, value in pairs
               if params.get("var", v) == v
               and params.get(key, value) == value]
    _require(bool(options), "cannot determine the substitution; "
                            "pass var=<v> {}=<{}>", key, key[0])
    return options


# -- identity and reflexivity ------------------------------------------------

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


# -- axioms -------------------------------------------------------------------

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
    term = mem.term  # it can name only the element with its state label
    label = term.name if isinstance(term, Var) else term_state(term)
    if sharp:
        _require(cfg.singleton_axioms, "sharp membership facts are disabled "
                                       "(singleton_axioms off)")
        element = Sharp(label) if label in _lookup(
            table.sharp_labels, mem.domain, params, sharp) else None
    else:
        element = _lookup(table.resolve, mem.domain, params).element(label)
    _require(element is not None and _element_matches(term, element),
             f"term does not name an element of {mem.domain}")


def _validate_hypothesis(c: Sequent, rule: RuleId, direction: Optional[str],
                         premises: Sequence[Sequent], params: dict,
                         cfg: TheoryConfig,
                         table: DomainTable) -> None:
    """Any sequent may be assumed; ``check`` lists it as open."""


# ---------------------------------------------------------------------------
# dispatch

#: leaf rule -> its schema; every other rule has premises, and
#: _validate_premised recomputes its steps
_LEAVES = {
    RuleId.IDENTITY: _validate_identity,
    RuleId.REFLEXIVITY: _validate_reflexivity,
    RuleId.AX_SINGLETON: _validate_ax_focus,
    RuleId.AX_FOCUS: _validate_ax_focus,
    RuleId.AX_MEMBER: _validate_ax_member,
    RuleId.AX_SHARP_MEMBER: _validate_ax_member,
    RuleId.HYPOTHESIS: _validate_hypothesis,
}


#: value kind -> whether a script reads a value's text back as that value;
#: a name that is None is absent, as the rules read label, bound and pick
_KIND_READS_BACK = {
    "int": lambda v: type(v) is int and v >= 0,
    "term": lambda v: isinstance(v, Term),
    "formula": lambda v: isinstance(v, Formula),
    "name": lambda v: v is None or type(v) is str and name_fault(
        v[1:-1] if v[:1] == "{" and v[-1:] == "}" else v, label=True) is None,
}
_READS_BACK = {key: _KIND_READS_BACK[kind]
               for key, kind in _PARAM_KINDS.items()}


def validate_step(conclusion: Sequent, rule: RuleId, direction: Optional[str],
                  premises: Sequence[Sequent], params: Optional[dict] = None,
                  cfg: Optional[TheoryConfig] = None,
                  table: Optional[DomainTable] = None) -> None:
    """Raise RuleError unless the step is a valid application."""
    params = params or {}
    for key, value in params.items():
        reads_back = _READS_BACK.get(key)
        if reads_back is None:
            raise RuleError(f"unknown parameter {key}")
        if not reads_back(value):
            raise RuleError(f"parameter {key}: {value!r} would not read back "
                            "from a script")
    cfg = cfg or TheoryConfig()
    table = table or DomainTable()
    premises = [p.conclusion if isinstance(p, Derivation) else p
                for p in premises]
    count = 0 if rule in _LEAVES else 2 if rule in _TWO_PREMISES else 1
    if rule in EQUATIONS:
        if direction == BACKWARD:
            count = 1
        elif direction != FORWARD:
            raise RuleError(f"{rule.value} needs direction forward|backward")
    elif direction is not None:
        raise RuleError(f"{rule.value} takes no direction")
    if len(premises) != count:
        raise RuleError(f"{rule.value} takes {count} premise(s), "
                        f"got {len(premises)}")
    _LEAVES.get(rule, _validate_premised)(conclusion, rule, direction,
                                          premises, params, cfg, table)


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
                         "declared fact of the singleton axioms")
    return CheckReport(first_failure is None, steps, first_failure,
                       assumptions, sorted(set(axioms_used)), notes)


def _axiom_domain_name(c: Sequent) -> Optional[str]:
    for item in c.antecedent + c.succedent:
        if isinstance(item, Member):
            return item.domain
    return None
