"""Derivation trees and the proof checker.

A derivation is a tree (shared subtrees allowed) of rule applications.
``check`` walks it bottom-up, validates every node under a theory
configuration and a domain declaration table, and reports the first
failure, the open assumptions, and the axioms used.

The definitory equations are defined once, in ``rules``.  The checker
validates an equation step by recomputing it with the ``rules`` rewrite
and comparing the result with the other side up to alpha-equivalence.
The step's own parameters pass through unchanged; only the missing ones
are inferred, by reading them off the two sides.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import DomainError, RuleError
from ..syntax.ast import (
    ContextVar, DomainTable, Eq, Exists, Formula, Member, Sequent, Sharp,
    Var, alpha_eq, alpha_eq_all, is_closed,
    is_singleton_literal, sharp_domain_name, term_state,
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

        def go(node):
            if id(node) in seen:
                return
            seen.add(id(node))
            for p in node.premises:
                yield from go(p)
            yield node

        yield from go(self)


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
    a script does not record which occurrences of t were abstracted.
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


def _completions(rule: RuleId, connective: Sequent, plain: Sequent,
                 params: dict) -> list:
    """The step's parameters, each missing one read off the two sides: the
    connective's position and, for the binders, the fresh variable of a
    membership on the plain side (for the existential also the positions of
    that membership and of the body).  One parameter set per reading."""
    options = [params]
    at = _CONNECTIVE_AT.get(rule)
    if at is not None and at[0] not in params:
        key, side, cls = at
        options = [dict(params, **{key: i})
                   for i, f in enumerate(getattr(connective, side))
                   if isinstance(f, cls)]
    ant = plain.antecedent
    if rule is RuleId.EQ_EXISTS_L:
        options = _fill(options, "member", lambda o: [
            i for i in range(len(ant) - 1, -1, -1) if _member_var(ant, i)])
        options = _fill(options, "body", lambda o: sorted(
            (i for i in range(len(ant)) if i != o["member"]),
            key=lambda i: i != o["member"] - 1))
        options = _fill(options, "var",
                        lambda o: _member_var(ant, o["member"]))
    elif rule is RuleId.EQ_FORALL_R or rule is RuleId.EQ_BOWTIE_R:
        options = _fill(options, "var", lambda o: list(dict.fromkeys(
            v for i in range(len(ant) - 1, -1, -1)
            for v in _member_var(ant, i))))
    return options


def _member_var(ant: tuple, i: int) -> list:
    """The variable z of a membership z in D at position i, if there is one."""
    if (0 <= i < len(ant) and isinstance(ant[i], Member)
            and isinstance(ant[i].term, Var)):
        return [ant[i].term.name]
    return []


def _fill(options: list, key: str, values) -> list:
    """Each option lacking key, once for every value in values(option)."""
    out = []
    for o in options:
        if key in o:
            out.append(o)
        else:
            out.extend(dict(o, **{key: v}) for v in values(o))
    return out


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
    indices = ([params["index"]] if "index" in params
               else range(len(right.antecedent)))
    for j in indices:
        if not (0 <= j < len(right.antecedent)):
            continue
        if not (isinstance(right.antecedent[j], Formula)
                and alpha_eq(right.antecedent[j], cut_formula)):
            continue
        spliced = (right.antecedent[:j] + left.antecedent
                   + right.antecedent[j + 1:])
        if alpha_eq_all(spliced, c.antecedent):
            return
    raise RuleError("conclusion does not splice the cut premises")


def _validate_subst(c: Sequent, rule: RuleId, direction: Optional[str],
                    premises: Sequence[Sequent], params: dict,
                    cfg: TheoryConfig, table: DomainTable) -> None:
    premise = premises[0]
    pairs = []
    if "var" in params and "term" in params:
        pairs.append((params["var"], params["term"]))
    else:
        for pm, pc in zip(premise.antecedent, c.antecedent):
            if (isinstance(pm, Member) and isinstance(pm.term, Var)
                    and isinstance(pc, Member) and is_closed(pc.term)
                    and pm.domain == pc.domain):
                pairs.append((pm.term.name, pc.term))
    _require(bool(pairs), "cannot determine the substituted variable; "
                          "pass var=<v> term=<t>")
    for v, t in pairs:
        if not is_closed(t):
            raise RuleError(f"substituted term {t!r} is not closed")
        if any(isinstance(i, ContextVar) and i.name == v
               for i in premise.antecedent + premise.succedent):
            raise RuleError(
                f"variable {v} also names a context metavariable; its "
                f"occurrences there are unknowable")
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
    pairs = []
    if "var" in params and "state" in params:
        pairs.append((params["var"], params["state"]))
    else:
        for pm, pc in zip(premise.antecedent, c.antecedent):
            if (isinstance(pm, Member) and isinstance(pm.term, Var)
                    and isinstance(pc, Member) and is_closed(pc.term)
                    and pc.domain == sharp_domain_name(pm.domain)):
                pairs.append((pm.term.name, term_state(pc.term)))
    _require(bool(pairs), "cannot determine the forgetful substitution; "
                          "pass var=<v> state=<s>")
    for v, s in pairs:
        mem_domains = [i.domain for i in premise.antecedent
                       if isinstance(i, Member) and isinstance(i.term, Var)
                       and i.term.name == v]
        if not mem_domains:
            continue
        domain_name = mem_domains[-1]
        if domain_name not in table:
            raise RuleError(f"domain {domain_name} is not declared")
        if s not in table.resolve(domain_name).labels:
            raise RuleError(
                f"state {s} is not an outcome of domain {domain_name}")
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
    witnesses = [i.term for i in c.antecedent
                 if isinstance(i, Member) and i.domain == ex.domain
                 and ("term" not in params or i.term == params["term"])]
    for t in witnesses:
        if extended:
            last = c.antecedent[-1]
            if not (isinstance(last, Member) and last.domain == ex.domain
                    and last.term == t):
                continue
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
    positions = ([params["position"]] if "position" in params
                 else range(len(c.antecedent)))
    for j in positions:
        if not 0 <= j < len(c.antecedent):
            continue
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

def _validate_ax_singleton(c: Sequent, rule: RuleId, direction: Optional[str],
                           premises: Sequence[Sequent], params: dict,
                           cfg: TheoryConfig, table: DomainTable) -> None:
    if not cfg.singleton_axioms:
        raise RuleError("singleton axiom is disabled (singleton_axioms off)")
    _require(len(c.antecedent) == 1 and len(c.succedent) == 1,
             "singleton axiom is z in {u} |- z = u")
    mem, eq = c.antecedent[0], c.succedent[0]
    _require(isinstance(mem, Member) and isinstance(mem.term, Var),
             "singleton axiom needs a variable membership on the left")
    _require(isinstance(eq, Eq), "singleton axiom concludes an equality")
    domain = table.resolve(mem.domain)
    _require(domain.kind == "singleton" or is_singleton_literal(mem.domain),
             f"domain {mem.domain} is not a singleton")
    _require(isinstance(eq.left, Var) and eq.left.name == mem.term.name,
             "equality must bind the membership variable")
    _require(_element_matches(eq.right, domain.elements[0]),
             f"equality right side does not name the element of {mem.domain}")


def _validate_ax_focus(c: Sequent, rule: RuleId, direction: Optional[str],
                       premises: Sequence[Sequent], params: dict,
                       cfg: TheoryConfig, table: DomainTable) -> None:
    _require(len(c.antecedent) == 1 and len(c.succedent) == 1,
             "focus axiom is z in D |- z = t1 \\/ ... \\/ z = tm")
    mem, disj = c.antecedent[0], c.succedent[0]
    _require(isinstance(mem, Member) and isinstance(mem.term, Var),
             "focus axiom needs a variable membership on the left")
    domain = table.resolve(mem.domain)
    if not cfg.is_focused(mem.domain, table):
        raise RuleError(f"domain {mem.domain} is not declared focused "
                        f"(focus axiom unavailable)")
    parts = flatten_or(disj) if isinstance(disj, Formula) else [disj]
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
    _require(len(c.antecedent) == 0 and len(c.succedent) == 1,
             "membership fact is |- t in D")
    mem = c.succedent[0]
    _require(isinstance(mem, Member), "membership fact concludes t in D")
    domain = table.resolve(mem.domain)
    _require(any(_element_matches(mem.term, e) for e in domain.elements),
             f"term does not name an element of {mem.domain}")


def _validate_ax_sharp_member(c: Sequent, rule: RuleId, direction: Optional[str],
                              premises: Sequence[Sequent], params: dict,
                              cfg: TheoryConfig, table: DomainTable) -> None:
    if not cfg.singleton_axioms:
        raise RuleError("sharp membership facts are disabled "
                        "(singleton_axioms off)")
    _require(len(c.antecedent) == 0 and len(c.succedent) == 1,
             "sharp membership fact is |- #s in D^f")
    mem = c.succedent[0]
    _require(isinstance(mem, Member), "sharp membership fact concludes #s in D^f")
    _require(is_closed(mem.term), "sharp membership needs a closed term")
    try:
        labels = table.sharp_labels(mem.domain)
    except DomainError as exc:
        raise RuleError(str(exc))
    state = term_state(mem.term)
    _require(state in labels,
             f"state {state} is not an outcome of the set behind {mem.domain}")


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
    RuleId.AX_SINGLETON: (_validate_ax_singleton, 0),
    RuleId.AX_FOCUS: (_validate_ax_focus, 0),
    RuleId.AX_MEMBER: (_validate_ax_member, 0),
    RuleId.AX_SHARP_MEMBER: (_validate_ax_sharp_member, 0),
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
