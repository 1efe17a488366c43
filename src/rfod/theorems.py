"""Mechanical constructions of the named results.

Every builder returns plain `Derivation` trees that re-check under
`calculus.check`; nothing here bypasses the rule catalog.  Fresh variables
follow the deterministic supply z, y, z1, z2, ... so the emitted scripts
are reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

from .errors import PreconditionError
from .calculus.checker import Derivation
from .calculus.rules import (
    BACKWARD, FORWARD, RuleId, TheoryConfig, bot_label, build_and, build_or,
    correlation_label, dualize, pick_bound_name,
)
from .syntax.ast import (
    And, Atom, Bot, ContextVar, Correlated, Domain, DomainTable, Eq, Exists,
    Forall, Formula, Member, Neq, Or, Outcome, Sequent, Sharp, Star, Term,
    Var, _var_names, alpha_eq, alpha_eq_all, domain_kind, free_vars,
    is_closed, sharp_domain_name, sharp_pred_name, singleton_literal_name,
    term_prob,
)
from .syntax.subst import (
    fresh_var, replace_term_occurrences, subst_formula, subst_sequent,
)

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
    if gamma is None:
        return (ContextVar("G"),)
    if isinstance(gamma, (ContextVar, Formula)):
        return (gamma,)
    return tuple(gamma)


def _fresh(avoid_nodes, extra=()) -> str:
    return fresh_var(set(extra).union(*map(_var_names, avoid_nodes)))


def schematic_domain(name: str, m: int, kind: str = "measured") -> Domain:
    """Uniform m-outcome domain with labels t1..tm, for schematic replays."""
    if m < 1:
        raise PreconditionError("domain needs at least one element")
    if m == 1:
        elements: tuple = (Outcome("t1", Fraction(1)),)
    else:
        elements = tuple(Outcome(f"t{i}", Fraction(1, m))
                         for i in range(1, m + 1))
    return Domain(name, elements, kind=kind)


# ---------------------------------------------------------------------------
# reflection axiom

def derive_reflection(domain: Union[Domain, str], pred: Pred = "A") -> Derivation:
    """(forall x in D . A(x)), z in D |- A(z), from identity by the
    universal equation read backward."""
    name = domain.name if isinstance(domain, Domain) else domain
    x = _pred_bound_name(pred)
    closed = Forall(x, name, apply_pred(pred, Var(x)))
    identity = Derivation(Sequent((closed,), (closed,)), RuleId.IDENTITY)
    z = _fresh([closed])
    conclusion = Sequent((closed, Member(Var(z), name)),
                         (apply_pred(pred, Var(z)),))
    return Derivation(conclusion, RuleId.EQ_FORALL_R, BACKWARD,
                      {"var": z}, (identity,))


# ---------------------------------------------------------------------------
# Lemma: from the conjunction over a focused domain to the universal

def _split_conjunction(leaf: Derivation, gamma: tuple) -> list:
    """EQ_AND_R backward down the right-associated spine; returns one node
    per conjunct, in order."""
    out = []
    node, formula = leaf, leaf.conclusion.succedent[0]
    while isinstance(formula, And):
        out.append(Derivation(Sequent(gamma, (formula.left,)), RuleId.EQ_AND_R,
                              BACKWARD, {"pick": "left"}, (node,)))
        node = Derivation(Sequent(gamma, (formula.right,)), RuleId.EQ_AND_R,
                          BACKWARD, {"pick": "right"}, (node,))
        formula = formula.right
    out.append(node)
    return out


def _focus_leaf(domain: Domain, z: str, disjunction: Formula,
                cfg: Optional[TheoryConfig] = None) -> Derivation:
    """Axiom leaf closing a focus cut.  Plain singletons go through the
    singleton axiom; anything declared focused (by flag or configuration)
    goes through the focus axiom."""
    conclusion = Sequent((Member(Var(z), domain.name),), (disjunction,))
    singleton_axioms = cfg.singleton_axioms if cfg is not None else True
    use_singleton = (domain.kind == "singleton" and not domain.focused
                     and singleton_axioms)
    rule = RuleId.AX_SINGLETON if use_singleton else RuleId.AX_FOCUS
    return Derivation(conclusion, rule, params={"domain": domain.name})


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
    conjunct_nodes = _split_conjunction(leaf, gamma)
    z = _fresh(list(gamma) + [conj], _pred_free_vars(pred))
    body = apply_pred(pred, Var(z))
    eq_nodes = [_eq_abstraction(node, gamma, e, z, (body,))
                for node, e in zip(conjunct_nodes, elements)]
    merged, disj = _or_merge(eq_nodes, len(gamma), elements, z)
    cut = _focus_cut(merged, disj, domain, z, len(gamma), cfg)
    x = _pred_bound_name(pred)
    root = Sequent(gamma, (Forall(x, domain.name, apply_pred(pred, Var(x))),))
    return Derivation(root, RuleId.EQ_FORALL_R, FORWARD,
                      {"var": z, "bound": x, "slot": 0}, (cut,))


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
    name = domain.name
    elements = domain.elements
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
    opened = Sequent(hyp_concl.antecedent + (Member(Var(y), name),),
                     (Neq(Var(z), Var(y)),))
    step2 = Derivation(opened, RuleId.EQ_FORALL_R, BACKWARD, {"var": y}, (hyp,))
    dualized = dualize(opened)
    step3 = Derivation(dualized, RuleId.DUALIZE, premises=(step2,))
    disj = build_or([Eq(Var(z), e) for e in elements])
    x = pick_bound_name([Eq(Var(z), Var(z))])
    existential = Exists(x, name, Eq(Var(z), Var(x)))
    step4 = Derivation(Sequent((existential,), (disj,)), RuleId.EQ_EXISTS_L,
                       FORWARD, {"index": 0, "member": 0, "body": 1}, (step3,))
    refl = Derivation(Sequent((), (Eq(Var(z), Var(z)),)), RuleId.REFLEXIVITY)
    weakened = Derivation(Sequent((Member(Var(z), name),),
                                  (Eq(Var(z), Var(z)),)),
                          RuleId.WEAKEN_L, params={"position": 0},
                          premises=(refl,))
    built = Derivation(Sequent((Member(Var(z), name),), (existential,)),
                       RuleId.EXISTS_R, params={"term": Var(z)},
                       premises=(weakened,))
    root = Sequent((Member(Var(z), name),), (disj,))
    return Derivation(root, RuleId.CUT,
                      params={"cut": existential, "index": 0},
                      premises=(built, step4))


# ---------------------------------------------------------------------------
# generalization from experienced judgements

@dataclass(frozen=True)
class Judgement:
    """One experienced assertion Gamma |- ..., with its indexing term(s)."""

    gamma: tuple
    succedents: tuple
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "gamma", _gamma_tuple(self.gamma))
        object.__setattr__(self, "succedents", tuple(self.succedents))
        object.__setattr__(self, "terms", tuple(self.terms))


def _abstract_template(formula: Formula, term: Term, hole: str) -> Formula:
    """Template with all occurrences of the indexing term abstracted."""
    probe = Sequent((), (formula,))
    out = replace_term_occurrences(probe, term, Var(hole))
    return out.succedent[0]


def _check_batch(batch: Sequence[Judgement], arity: int) -> None:
    if not batch:
        raise PreconditionError("empty judgement batch")
    first = batch[0]
    for j in batch:
        if not alpha_eq_all(j.gamma, first.gamma):
            raise PreconditionError("judgements must share the same context")
        if len(j.succedents) != arity:
            raise PreconditionError(
                f"each judgement needs {arity} succedent formula(s)")
        for t in j.terms:
            if not is_closed(t):
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


def _or_merge(nodes: Sequence[Derivation], index: int, terms: Sequence[Term],
              var: str) -> Tuple[Derivation, Formula]:
    merged = nodes[-1]
    disj: Formula = Eq(Var(var), terms[-1])
    for node, term in zip(reversed(list(nodes[:-1])), reversed(list(terms[:-1]))):
        disj = Or(Eq(Var(var), term), disj)
        ant = list(merged.conclusion.antecedent)
        ant[index] = disj
        conclusion = Sequent(tuple(ant), merged.conclusion.succedent)
        merged = Derivation(conclusion, RuleId.EQ_OR_L, FORWARD,
                            {"index": index}, (node, merged))
    return merged, disj


def _focus_cut(merged: Derivation, disj: Formula, domain: Domain, var: str,
               index: int, cfg: Optional[TheoryConfig] = None) -> Derivation:
    focus = _focus_leaf(domain, var, disj, cfg)
    ant = list(merged.conclusion.antecedent)
    ant[index] = Member(Var(var), domain.name)
    conclusion = Sequent(tuple(ant), merged.conclusion.succedent)
    return Derivation(conclusion, RuleId.CUT,
                      params={"cut": disj, "index": index},
                      premises=(focus, merged))


def generalize(batch: Sequence[Judgement], mode: str = "single",
               names: Optional[Sequence[str]] = None,
               table: Optional[DomainTable] = None):
    """Generalize experienced judgements into a predicative assertion.

    Returns (sequent, derivation).  The derivation closes with a cut
    against the focus axiom of the constructed domain, whose membership
    predicate is the disjunction of equalities with the experienced
    outcomes; in correlated mode the returned sequent carries the labelled
    comma while the derivation ends at the plain two-formula form.
    """
    if mode == "single":
        root = _generalize_shared(batch, (names or ["D"])[0], table, 1)
        return root.conclusion, root
    if mode == "two-variable":
        names = names or ["D", "D'"]
        return _generalize_two(batch, names[0], names[1], table)
    if mode == "correlated":
        name = (names or ["DS"])[0]
        root = _generalize_shared(batch, name, table, 2)
        labelled = Sequent(root.conclusion.antecedent, (Correlated(
            correlation_label(name), *root.conclusion.succedent),))
        return labelled, root
    raise PreconditionError(f"unknown generalization mode {mode!r}")


def _generalize_shared(batch, name, table, arity: int) -> Derivation:
    """Judgements indexed by one term each, shared by their arity formulas."""
    _check_batch(batch, arity)
    for j in batch:
        if len(j.terms) != 1:
            raise PreconditionError(
                "single and correlated modes take one indexing term per "
                "judgement")
    gamma = batch[0].gamma
    terms = [j.terms[0] for j in batch]
    domain = _domain_from_terms(name, terms)
    if table is not None:
        table.register(domain)
    z = _fresh(list(gamma) + [f for j in batch for f in j.succedents])
    templates = tuple(_abstract_template(f, terms[0], z)
                      for f in batch[0].succedents)
    for j, t in zip(batch, terms):
        want = [subst_formula(template, z, t) for template in templates]
        if not alpha_eq_all(j.succedents, want):
            raise PreconditionError(
                "judgements do not instantiate the same formulas at their "
                "terms")
    nodes = []
    for j, t in zip(batch, terms):
        leaf = Derivation(Sequent(gamma, j.succedents), RuleId.HYPOTHESIS)
        nodes.append(_eq_abstraction(leaf, gamma, t, z, templates))
    merged, disj = _or_merge(nodes, len(gamma), terms, z)
    return _focus_cut(merged, disj, domain, z, len(gamma))


def _generalize_two(batch, name1, name2, table):
    _check_batch(batch, 2)
    for j in batch:
        if len(j.terms) != 2:
            raise PreconditionError(
                "two-variable mode takes an indexing pair per judgement")
    gamma = batch[0].gamma
    ts = list(dict.fromkeys(j.terms[0] for j in batch))
    ws = list(dict.fromkeys(j.terms[1] for j in batch))
    m, n = len(ts), len(ws)
    if len(batch) != m * n:
        raise PreconditionError(
            f"two-variable mode needs the full {m}x{n} grid of judgements")
    for k, j in enumerate(batch):
        if j.terms != (ts[k // n], ws[k % n]):
            raise PreconditionError(
                "judgements must enumerate the index grid row-major")
    d1 = _domain_from_terms(name1, ts)
    d2 = _domain_from_terms(name2, ws)
    if table is not None:
        table.register(d1)
        table.register(d2)
    if d1.name == d2.name:
        raise PreconditionError("two-variable mode needs two domain names")
    avoid = list(gamma) + [f for j in batch for f in j.succedents]
    z = _fresh(avoid)
    y = _fresh([Sequent(gamma, batch[0].succedents)], {z})
    template1 = _abstract_template(batch[0].succedents[0], ts[0], z)
    template2 = _abstract_template(batch[0].succedents[1], ws[0], y)
    for k, j in enumerate(batch):
        want = (subst_formula(template1, z, ts[k // n]),
                subst_formula(template2, y, ws[k % n]))
        if not alpha_eq_all(j.succedents, want):
            raise PreconditionError(
                "judgements do not instantiate the two formulas at the grid")
    succ = (template1, template2)
    L = len(gamma)
    per_j = []
    for k, j in enumerate(batch):
        leaf = Derivation(Sequent(gamma, j.succedents), RuleId.HYPOTHESIS)
        eq1 = _eq_abstraction(leaf, gamma, ts[k // n], z,
                              (template1, subst_formula(template2, y, ws[k % n])))
        eq2 = Derivation(
            Sequent(gamma + (Eq(Var(z), ts[k // n]), Eq(Var(y), ws[k % n])),
                    succ),
            RuleId.EQ_EQUALITY, BACKWARD,
            {"term": ws[k % n], "var": y}, (eq1,))
        per_j.append(eq2)
    columns = []
    for jj in range(n):
        nodes = [per_j[i * n + jj] for i in range(m)]
        columns.append(_or_merge(nodes, L, ts, z))
    rows = [c[0] for c in columns]
    merged, disj2 = _or_merge(rows, L + 1, ws, y)
    cut1 = _focus_cut(merged, columns[0][1], d1, z, L)
    root = _focus_cut(cut1, disj2, d2, y, L + 1)
    return root.conclusion, root


# ---------------------------------------------------------------------------
# reversibility of substitution

@dataclass(frozen=True)
class ReversibilityVerdict:
    domain: str
    reversible: bool
    witness: Optional[Derivation] = None
    missing_axiom: Optional[str] = None


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
        inst = Derivation(subst_sequent(start, z, e), RuleId.SUBST,
                          params={"var": z, "term": e}, premises=(hyp,))
        fact = Derivation(Sequent((), (Member(e, domain.name),)),
                          RuleId.AX_MEMBER, params={"domain": domain.name})
        freed = Derivation(Sequent(gamma, (apply_pred(pred, e),)),
                           RuleId.CUT,
                           params={"cut": Member(e, domain.name),
                                   "index": len(gamma)},
                           premises=(fact, inst))
        eq_nodes.append(_eq_abstraction(freed, gamma, e, z, (body,)))
    merged, disj = _or_merge(eq_nodes, len(gamma), list(domain.elements), z)
    root = _focus_cut(merged, disj, domain, z, len(gamma), cfg)
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
    collapse = _collapse(domain.name, pred, label)
    closed = collapse.conclusion.antecedent[0]
    sharp_atom = collapse.conclusion.succedent[0]
    singleton = Domain(singleton_literal_name(label), (Sharp(label),),
                       kind="singleton")
    consequence = derive_prop1(sharp_pred_name(pred), singleton, cfg=cfg)
    repeat_root = Sequent((closed,), (consequence.conclusion.succedent[0],))
    repeat = Derivation(repeat_root, RuleId.CUT,
                        params={"cut": sharp_atom, "index": 0},
                        premises=(collapse, consequence))
    return collapse, repeat


def derive_remeasure(domain: Domain, i: int, pred: Pred = "A") -> Derivation:
    """Measuring the collapsed state again re-obtains the sharp assertion:
    (forall x in {s_i} . A^f(x)) |- A^f(#s_i)."""
    if not 1 <= i <= len(domain.elements):
        raise PreconditionError(f"index {i} out of range")
    label = domain.labels[i - 1]
    sharp = sharp_pred_name(pred if isinstance(pred, str) else "A")
    return _collapse(singleton_literal_name(label), sharp, label)


def _collapse(name: str, pred: str, label: str) -> Derivation:
    """(forall x in name . pred(x)) |- pred^f(#label): reflection, the
    forgetful substitution of #label, and a cut against the declared sharp
    membership."""
    refl = derive_reflection(name, pred)
    z = refl.params["var"]
    shadow = subst_sequent(refl.conclusion, z, Sharp(label), mode="forgetful")
    fsubst = Derivation(shadow, RuleId.F_SUBST,
                        params={"var": z, "state": label}, premises=(refl,))
    fact_formula = Member(Sharp(label), sharp_domain_name(name))
    fact = Derivation(Sequent((), (fact_formula,)), RuleId.AX_SHARP_MEMBER,
                      params={"domain": name})
    closed = refl.conclusion.antecedent[0]
    sharp_atom = Atom(sharp_pred_name(pred), (Sharp(label),))
    return Derivation(Sequent((closed,), (sharp_atom,)), RuleId.CUT,
                      params={"cut": fact_formula, "index": 1},
                      premises=(fact, fsubst))


# ---------------------------------------------------------------------------
# distributivity of * over the universal (classical mode)

def derive_distributivity(domain_a: Domain, domain_b: Domain,
                          pred_a: Pred = "A", pred_b: Pred = "A'",
                          cfg: Optional[TheoryConfig] = None, gamma=None):
    """Two routes from the shared two-variable leaf: the nested universal
    over a star, and the star of the two universals (the second needs
    right contexts in the universal equation, i.e. classical mode)."""
    if cfg is not None and not cfg.right_contexts_in_forall:
        raise PreconditionError(
            "distributivity needs classical right contexts in the "
            "universal equation")
    gamma = _gamma_tuple(gamma)
    z = _fresh(list(gamma), _pred_free_vars(pred_a) | _pred_free_vars(pred_b))
    y = fresh_var(free_vars(Sequent(gamma, ())) | {z}
                  | _pred_free_vars(pred_a) | _pred_free_vars(pred_b))
    fa, fb = apply_pred(pred_a, Var(z)), apply_pred(pred_b, Var(y))
    leaf_concl = Sequent(gamma + (Member(Var(z), domain_a.name),
                                  Member(Var(y), domain_b.name)), (fa, fb))
    leaf = Derivation(leaf_concl, RuleId.HYPOTHESIS)
    x = _pred_bound_name(pred_a)
    x2 = pick_bound_name([apply_pred(pred_b, Var(y))], x + "'")

    # route 1: star first, then both universals (no right context arises)
    starred = Derivation(Sequent(leaf_concl.antecedent, (Star(fa, fb),)),
                         RuleId.EQ_STAR_R, FORWARD, {"slot": 0}, (leaf,))
    inner = Forall(x2, domain_b.name,
                   Star(fa, apply_pred(pred_b, Var(x2))))
    bind_y = Derivation(
        Sequent(gamma + (Member(Var(z), domain_a.name),), (inner,)),
        RuleId.EQ_FORALL_R, FORWARD,
        {"var": y, "bound": x2, "slot": 0}, (starred,))
    outer = Forall(x, domain_a.name,
                   Forall(x2, domain_b.name,
                          Star(apply_pred(pred_a, Var(x)),
                               apply_pred(pred_b, Var(x2)))))
    nested = Derivation(Sequent(gamma, (outer,)), RuleId.EQ_FORALL_R, FORWARD,
                        {"var": z, "bound": x, "slot": 0}, (bind_y,))

    # route 2: universals first (right context), then star
    ub = Forall(x2, domain_b.name, apply_pred(pred_b, Var(x2)))
    bind_y2 = Derivation(
        Sequent(gamma + (Member(Var(z), domain_a.name),), (fa, ub)),
        RuleId.EQ_FORALL_R, FORWARD,
        {"var": y, "bound": x2, "slot": 1}, (leaf,))
    ua = Forall(x, domain_a.name, apply_pred(pred_a, Var(x)))
    bind_z2 = Derivation(Sequent(gamma, (ua, ub)), RuleId.EQ_FORALL_R,
                         FORWARD, {"var": z, "bound": x, "slot": 0},
                         (bind_y2,))
    split = Derivation(Sequent(gamma, (Star(ua, ub),)), RuleId.EQ_STAR_R,
                       FORWARD, {"slot": 0}, (bind_z2,))
    return nested, split
