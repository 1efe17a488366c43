"""Mechanical constructions of the named results.

Every builder returns plain `Derivation` trees that re-check under
`calculus.check`.  Every rule with premises is one function in `rules`,
which the checker recomputes a step with; a node built here gets its
conclusion from the same function, except an equality abstraction: its
composition abstracts every occurrence, including those in the context.
Fresh variables follow the deterministic supply z, y, z1, z2, ... so the
emitted scripts are reproducible.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .errors import PreconditionError
from .calculus.checker import Derivation
from .calculus.rules import (
    BACKWARD, FORWARD, RuleId, TheoryConfig, bot_label, build_and,
    conclude, equation_step, pick_bound_name,
)
from .syntax.ast import (
    And, Atom, Bot, ContextVar, Domain, DomainTable, Eq, Forall,
    Formula, Member, Neq, Outcome, Sequent, Sharp, Term, Var, _Frozen,
    _var_names, alpha_eq, alpha_eq_all, domain_kind, free_vars, is_closed,
    sharp_domain_name, sharp_pred_name, singleton_literal_name, term_prob,
)
from .syntax.subst import fresh_var, replace_term_occurrences, subst_formula

#: a predicate is a symbol name or a (hole-variable, formula) template
Pred = Union[str, Tuple[str, Formula]]


def apply_pred(pred: Pred, t: Term) -> Formula:
    if isinstance(pred, str):
        return Atom(pred, (t,))
    hole, template = pred
    return subst_formula(template, hole, t)


def _pred_free_vars(pred: Pred) -> frozenset:
    if isinstance(pred, str):
        return frozenset()
    hole, template = pred
    return free_vars(template) - {hole}


def _pred_bound_name(pred: Pred, preferred: str = "x") -> str:
    # a closed argument leaves exactly the template's own variables taken
    return pick_bound_name([apply_pred(pred, Sharp("_"))], preferred)


def _gamma_tuple(gamma) -> tuple:
    return (ContextVar("G"),) if gamma is None else tuple(gamma)


def _fresh(avoid_nodes, extra=()) -> str:
    return fresh_var(set(extra).union(*map(_var_names, avoid_nodes)))


def _step(rule: RuleId, premises: tuple, params: Optional[dict] = None,
          direction: Optional[str] = None, cfg: Optional[TheoryConfig] = None,
          table: Optional[DomainTable] = None, **unrecorded) -> Derivation:
    """The node of ``rule`` over ``premises``, its conclusion computed by
    the rule; ``unrecorded`` values reach the rule but not the node's
    parameters (and so not the script)."""
    params = params or {}
    conclusion = conclude(rule, [p.conclusion for p in premises],
                          {**params, **unrecorded}, cfg, table, direction)
    return Derivation(conclusion, rule, direction, params, premises)


def schematic_domain(name: str, m: int) -> Domain:
    """Uniform m-outcome domain with labels t1..tm, for schematic replays."""
    if m < 1:
        raise PreconditionError("domain needs at least one element")
    if m == 1:
        elements: tuple = (Outcome("t1", Fraction(1)),)
    else:
        elements = tuple(Outcome(f"t{i}", Fraction(1, m))
                         for i in range(1, m + 1))
    return Domain(name, elements)


# ---------------------------------------------------------------------------
# reflection axiom

def derive_reflection(domain: Union[Domain, str], pred: Pred = "A") -> Derivation:
    """(forall x in D . A(x)), z in D |- A(z), from identity by the
    universal equation read backward."""
    name = domain.name if isinstance(domain, Domain) else domain
    x = _pred_bound_name(pred)
    closed = Forall(x, name, apply_pred(pred, Var(x)))
    identity = Derivation(Sequent((closed,), (closed,)), RuleId.IDENTITY)
    return _step(RuleId.EQ_FORALL_R, (identity,), {"var": _fresh([closed])},
                 BACKWARD)


# ---------------------------------------------------------------------------
# Lemma: from the conjunction over a focused domain to the universal

def _split_conjunction(leaf: Derivation) -> list:
    """EQ_AND_R backward down the right-associated spine, each level
    decomposed once; returns one node per conjunct, in order."""
    out = []
    node = leaf
    while isinstance(node.conclusion.succedent[0], And):
        left, right = equation_step(node.conclusion, RuleId.EQ_AND_R,
                                    BACKWARD)
        out.append(Derivation(left, RuleId.EQ_AND_R, BACKWARD,
                              {"pick": "left"}, (node,)))
        node = Derivation(right, RuleId.EQ_AND_R, BACKWARD,
                          {"pick": "right"}, (node,))
    out.append(node)
    return out


def derive_lemma1(gamma, pred: Pred, domain: Domain,
                  cfg: Optional[TheoryConfig] = None,
                  leaf: Optional[Derivation] = None) -> Derivation:
    """Gamma |- (forall x in D . A(x)) from the single open leaf
    Gamma |- A(t1) & ... & A(tm), for a focused domain."""
    if cfg is not None and not cfg.is_focused(domain.name,
                                              DomainTable([domain])):
        raise PreconditionError(
            f"domain {domain.name} is not focused (focus axiom unavailable)")
    gamma = _gamma_tuple(gamma)
    elements = domain.elements
    conj = build_and([apply_pred(pred, e) for e in elements])
    if leaf is None:
        leaf = Derivation(Sequent(gamma, (conj,)), RuleId.HYPOTHESIS)
    elif not alpha_eq(leaf.conclusion, Sequent(gamma, (conj,))):
        raise PreconditionError("supplied leaf does not conclude the "
                                "conjunction over the domain")
    z = _fresh(list(gamma) + [conj], _pred_free_vars(pred))
    body = apply_pred(pred, Var(z))
    eq_nodes = [_eq_abstraction(node, gamma, e, z, (body,))
                for node, e in zip(_split_conjunction(leaf), elements)]
    cut = _focus_cut(_or_merge(eq_nodes, len(gamma)), domain, z, len(gamma),
                     cfg)
    return _step(RuleId.EQ_FORALL_R, (cut,),
                 {"var": z, "bound": _pred_bound_name(pred), "slot": 0},
                 FORWARD)


def derive_prop1(pred: Pred, domain: Domain,
                 cfg: Optional[TheoryConfig] = None) -> Derivation:
    """Closed derivation of A(t1) & ... & A(tm) |- (forall x in D . A(x)):
    the lemma with the conjunction itself as context, closed by identity."""
    conj = build_and([apply_pred(pred, e) for e in domain.elements])
    identity = Derivation(Sequent((conj,), (conj,)), RuleId.IDENTITY)
    return derive_lemma1((conj,), pred, domain, cfg=cfg, leaf=identity)


# ---------------------------------------------------------------------------
# the converse: schematic conjunction-to-universal derivability focuses

def prop2_hypothesis(domain: Domain, z: str = "z") -> Sequent:
    """The schematic hypothesis instantiated at inequality with z."""
    elements = domain.elements
    conj = build_and([Neq(Var(z), e) for e in elements])
    x = pick_bound_name([Neq(Var(z), Var(z))])  # avoids z
    closed = Forall(x, domain.name, Neq(Var(z), Var(x)))
    return Sequent((conj,), (closed,))


def derive_prop2(domain: Domain,
                 hypothesis: Optional[Derivation] = None) -> Derivation:
    """z in D |- z = t1 \\/ ... \\/ z = tm from the schematic hypothesis,
    by the six-stage chain: instantiate at inequality, open the universal,
    dualize, close the existential, build z in D |- (exists x in D) z = x,
    and cut the existential formula."""
    z = "z"
    hyp_concl = prop2_hypothesis(domain, z)
    if hypothesis is None:
        hyp = Derivation(hyp_concl, RuleId.HYPOTHESIS)
    else:
        if not alpha_eq(hypothesis.conclusion, hyp_concl):
            raise PreconditionError(
                "hypothesis derivation must conclude the schematic "
                "conjunction-to-universal instance at inequality")
        hyp = hypothesis
    y = _fresh([hyp_concl], {z})
    step2 = _step(RuleId.EQ_FORALL_R, (hyp,), {"var": y}, BACKWARD)
    step3 = _step(RuleId.DUALIZE, (step2,))
    step4 = _step(RuleId.EQ_EXISTS_L, (step3,),
                  {"index": 0, "member": 0, "body": 1}, FORWARD)
    existential = step4.conclusion.antecedent[0]
    refl = Derivation(Sequent((), (Eq(Var(z), Var(z)),)), RuleId.REFLEXIVITY)
    weakened = _step(RuleId.WEAKEN_L, (refl,), {"position": 0},
                     formula=Member(Var(z), domain.name))
    built = _step(RuleId.EXISTS_R, (weakened,), {"term": Var(z)},
                  existential=existential)
    return _step(RuleId.CUT, (built, step4), {"cut": existential, "index": 0})


# ---------------------------------------------------------------------------
# generalization from experienced judgements

class Judgement(_Frozen):
    """One experienced assertion Gamma |- ..., with its indexing term(s)."""

    __slots__ = ("gamma", "succedents", "terms")

    def __init__(self, gamma: tuple, succedents: tuple, terms: tuple):
        object.__setattr__(self, "gamma", _gamma_tuple(gamma))
        object.__setattr__(self, "succedents", tuple(succedents))
        object.__setattr__(self, "terms", tuple(terms))


def _abstract_template(formula: Formula, term: Term, hole: str) -> Formula:
    """Template with all occurrences of the indexing term abstracted."""
    probe = Sequent((), (formula,))
    out = replace_term_occurrences(probe, term, Var(hole))
    return out.succedent[0]


def _check_batch(batch: Sequence[Judgement]) -> None:
    if not batch:
        raise PreconditionError("empty judgement batch")
    first = batch[0]
    for j in batch:
        if not alpha_eq_all(j.gamma, first.gamma):
            raise PreconditionError("judgements must share the same context")
        if len(j.succedents) != 1 or len(j.terms) != 1:
            raise PreconditionError(
                "each judgement needs one succedent formula and one "
                "indexing term")
        if not is_closed(j.terms[0]):
            raise PreconditionError(
                "indexing terms must be closed outcome terms")


def _domain_from_terms(name: str, terms: Sequence[Term]) -> Domain:
    kind = domain_kind([term_prob(t) for t in terms])
    # membership is defined as the disjunction of equalities with the
    # experienced outcomes, so the constructed domain is focused
    return Domain(name, tuple(terms), focused=True, kind=kind)


def _eq_abstraction(node: Derivation, gamma: tuple, term: Term, var: str,
                    succedents: tuple) -> Derivation:
    conclusion = Sequent(gamma + (Eq(Var(var), term),), succedents)
    return Derivation(conclusion, RuleId.EQ_EQUALITY, BACKWARD,
                      {"term": term, "var": var}, (node,))


def _or_merge(nodes: Sequence[Derivation], index: int) -> Derivation:
    """EQ_OR_L forward from the last node back: the antecedent item at
    ``index`` becomes the disjunction of the nodes' items there."""
    merged = nodes[-1]
    for node in reversed(nodes[:-1]):
        merged = _step(RuleId.EQ_OR_L, (node, merged), {"index": index},
                       FORWARD)
    return merged


def _focus_cut(merged: Derivation, domain: Domain, var: str, index: int,
               cfg: Optional[TheoryConfig] = None) -> Derivation:
    """Cut the disjunction at ``index`` against the axiom leaf var in D |-
    disjunction.  Plain singletons go through the singleton axiom; anything
    declared focused (by flag or configuration) goes through the focus
    axiom."""
    disj = merged.conclusion.antecedent[index]
    singleton = (domain.kind == "singleton" and not domain.focused
                 and (cfg is None or cfg.singleton_axioms))
    focus = Derivation(Sequent((Member(Var(var), domain.name),), (disj,)),
                       RuleId.AX_SINGLETON if singleton else RuleId.AX_FOCUS,
                       params={"domain": domain.name})
    return _step(RuleId.CUT, (focus, merged), {"cut": disj, "index": index})


def generalize(batch: Sequence[Judgement], *, name: str = "D",
               table: Optional[DomainTable] = None):
    """Generalize experienced judgements, each one formula at one closed
    outcome, into the predicative assertion over the domain ``name`` of
    those outcomes.

    Returns (sequent, derivation).  The derivation closes with a cut
    against the focus axiom of the constructed domain, whose membership
    predicate is the disjunction of equalities with the experienced
    outcomes.
    """
    _check_batch(batch)
    gamma = batch[0].gamma
    terms = [j.terms[0] for j in batch]
    domain = _domain_from_terms(name, terms)
    if table is not None:
        table.register(domain)
    z = _fresh(list(gamma) + [j.succedents[0] for j in batch])
    template = _abstract_template(batch[0].succedents[0], terms[0], z)
    nodes = []
    for j, t in zip(batch, terms):
        if not alpha_eq(j.succedents[0], subst_formula(template, z, t)):
            raise PreconditionError(
                "judgements do not instantiate the same formula at their "
                "terms")
        leaf = Derivation(Sequent(gamma, j.succedents), RuleId.HYPOTHESIS)
        nodes.append(_eq_abstraction(leaf, gamma, t, z, (template,)))
    root = _focus_cut(_or_merge(nodes, len(gamma)), domain, z, len(gamma))
    return root.conclusion, root


# ---------------------------------------------------------------------------
# reversibility of substitution

class ReversibilityVerdict(_Frozen):
    __slots__ = ("domain", "reversible", "witness", "missing_axiom")

    def __init__(self, domain: str, reversible: bool,
                 witness: Optional[Derivation] = None,
                 missing_axiom: Optional[str] = None):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "reversible", reversible)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "missing_axiom", missing_axiom)


def check_reversibility(domain: Domain, cfg: TheoryConfig,
                        gamma=None, pred: Pred = "A") -> ReversibilityVerdict:
    """Substitution over D is reversible iff D is focused: the witness
    instantiates Gamma, z in D |- A(z) at every outcome, discharges the
    memberships against declared facts, and generalizes back to the
    original sequent."""
    table = DomainTable([domain])
    if not cfg.is_focused(domain.name, table):
        return ReversibilityVerdict(domain.name, False, None,
                                    missing_axiom=f"AX_FOCUS({domain.name})")
    gamma = _gamma_tuple(gamma)
    z = _fresh(list(gamma), _pred_free_vars(pred))
    body = apply_pred(pred, Var(z))
    start = Sequent(gamma + (Member(Var(z), domain.name),), (body,))
    hyp = Derivation(start, RuleId.HYPOTHESIS)
    eq_nodes = []
    for e in domain.elements:
        inst = _step(RuleId.SUBST, (hyp,), {"var": z, "term": e})
        fact = Derivation(Sequent((), (Member(e, domain.name),)),
                          RuleId.AX_MEMBER, params={"domain": domain.name})
        freed = _step(RuleId.CUT, (fact, inst),
                      {"cut": Member(e, domain.name), "index": len(gamma)})
        eq_nodes.append(_eq_abstraction(freed, gamma, e, z, (body,)))
    root = _focus_cut(_or_merge(eq_nodes, len(gamma)), domain, z, len(gamma),
                      cfg)
    assert alpha_eq(root.conclusion, start)
    return ReversibilityVerdict(domain.name, True, root)


# ---------------------------------------------------------------------------
# uncertainty

def build_uncertainty(base: Sequent, incompatible: Domain) -> Sequent:
    """Adjoin the labelled falsum for an incompatible observable whose
    outcome distribution is uniform."""
    if incompatible.kind != "uniform":
        raise PreconditionError(
            f"domain {incompatible.name} is not uniform")
    if len(base.succedent) < 1:
        raise PreconditionError("falsum needs a non-empty right-hand side")
    return Sequent(base.antecedent,
                   base.succedent + (Bot(bot_label(incompatible.name)),))


# ---------------------------------------------------------------------------
# collapse and repeatability

def derive_collapse_and_repeat(domain: Domain, i: int, pred: Pred = "A",
                               cfg: Optional[TheoryConfig] = None):
    """(forall x in D . A(x)) |- A^f(#s_i), and its repetition through the
    sharp-state axiom: ... |- (forall x in {s_i} . A^f(x)).  1-based i."""
    if cfg is not None and not cfg.singleton_axioms:
        raise PreconditionError("singleton axioms are disabled")
    if not 1 <= i <= len(domain.elements):
        raise PreconditionError(
            f"index {i} out of range for domain {domain.name} "
            f"({len(domain.elements)} elements)")
    if not isinstance(pred, str):
        raise PreconditionError("collapse takes a predicate symbol")
    label = domain.labels[i - 1]
    collapse = _collapse(domain.name, pred, label, DomainTable([domain]))
    singleton = Domain(singleton_literal_name(label), (Sharp(label),),
                       kind="singleton")
    consequence = derive_prop1(sharp_pred_name(pred), singleton, cfg=cfg)
    repeat = _step(RuleId.CUT, (collapse, consequence),
                   {"cut": collapse.conclusion.succedent[0], "index": 0})
    return collapse, repeat


def derive_remeasure(domain: Domain, i: int, pred: Pred = "A") -> Derivation:
    """Measuring the collapsed state again re-obtains the sharp assertion:
    (forall x in {s_i} . A^f(x)) |- A^f(#s_i)."""
    if not 1 <= i <= len(domain.elements):
        raise PreconditionError(f"index {i} out of range")
    label = domain.labels[i - 1]
    sharp = sharp_pred_name(pred if isinstance(pred, str) else "A")
    return _collapse(singleton_literal_name(label), sharp, label)


def _collapse(name: str, pred: str, label: str,
              table: Optional[DomainTable] = None) -> Derivation:
    """(forall x in name . pred(x)) |- pred^f(#label): reflection, the
    forgetful substitution of #label, and a cut against the declared sharp
    membership."""
    refl = derive_reflection(name, pred)
    fsubst = _step(RuleId.F_SUBST, (refl,),
                   {"var": refl.params["var"], "state": label}, table=table)
    fact_formula = Member(Sharp(label), sharp_domain_name(name))
    fact = Derivation(Sequent((), (fact_formula,)), RuleId.AX_SHARP_MEMBER,
                      params={"domain": name})
    return _step(RuleId.CUT, (fact, fsubst),
                 {"cut": fact_formula, "index": 1})


# ---------------------------------------------------------------------------
# distributivity of * over the universal (classical mode)

def derive_distributivity(domain_a: Domain, domain_b: Domain,
                          pred: str = "A", cfg: Optional[TheoryConfig] = None,
                          gamma=None):
    """Two routes from the leaf Gamma, z in Da, y in Db |- A(z), A'(y),
    where A is the predicate symbol ``pred``: the nested universal over a
    star, and the star of the two universals (the second needs right
    contexts in the universal equation, i.e. classical mode)."""
    if cfg is not None and not cfg.right_contexts_in_forall:
        raise PreconditionError(
            "distributivity needs classical right contexts in the "
            "universal equation")
    if not isinstance(pred, str):
        raise PreconditionError("distributivity takes a predicate symbol")
    cfg = cfg or TheoryConfig(right_contexts_in_forall=True)
    gamma = _gamma_tuple(gamma)
    z = _fresh(list(gamma))
    y = fresh_var(free_vars(Sequent(gamma, ())) | {z})
    fa, fb = Atom(pred, (Var(z),)), Atom(pred + "'", (Var(y),))
    leaf_concl = Sequent(gamma + (Member(Var(z), domain_a.name),
                                  Member(Var(y), domain_b.name)), (fa, fb))
    leaf = Derivation(leaf_concl, RuleId.HYPOTHESIS)
    x = _pred_bound_name(pred)
    x2 = pick_bound_name([fb], x + "'")

    def forward(rule, node, **params):
        return _step(rule, (node,), params, FORWARD, cfg)

    # route 1: star first, then both universals (no right context arises)
    starred = forward(RuleId.EQ_STAR_R, leaf, slot=0)
    bind_y = forward(RuleId.EQ_FORALL_R, starred, var=y, bound=x2, slot=0)
    nested = forward(RuleId.EQ_FORALL_R, bind_y, var=z, bound=x, slot=0)

    # route 2: universals first (right context), then star
    bind_y2 = forward(RuleId.EQ_FORALL_R, leaf, var=y, bound=x2, slot=1)
    bind_z2 = forward(RuleId.EQ_FORALL_R, bind_y2, var=z, bound=x, slot=0)
    split = forward(RuleId.EQ_STAR_R, bind_z2, slot=0)
    return nested, split
