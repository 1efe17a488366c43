"""Replays of the named results and their axiom gating."""
from fractions import Fraction

import pytest

from rfod.errors import PreconditionError
from rfod.calculus import RuleId, TheoryConfig, check, dualize
from rfod.syntax import (
    Atom, ContextVar, Domain, DomainTable, Member, Neq, Outcome,
    Sequent, Sharp, Var, alpha_eq, parse_sequent, render,
)
from rfod.theorems import (
    Judgement, build_uncertainty, check_reversibility,
    derive_collapse_and_repeat, derive_distributivity, derive_lemma1,
    derive_prop1, derive_prop2, derive_reflection, derive_remeasure,
    generalize, prop2_hypothesis, schematic_domain,
)

from gen import make_rng

HALF = Fraction(1, 2)
FOCUSED_D = TheoryConfig(focused_domains=frozenset({"D"}))


def table_for(*domains):
    return DomainTable(domains)


# ---------------------------------------------------------------------------
# reflection

def test_reflection_two_nodes_and_shape():
    d = schematic_domain("D", 2)
    derivation = derive_reflection(d)
    assert len(list(derivation.walk())) == 2
    assert render(derivation.conclusion) == \
        "forall x in D . A(x), z in D |- A(z)"


def test_reflection_singleton_instance():
    derivation = derive_reflection("{u}")
    assert render(derivation.conclusion) == \
        "forall x in {u} . A(x), z in {u} |- A(z)"


def test_reflection_checks_under_any_config():
    d = schematic_domain("D", 3)
    derivation = derive_reflection(d)
    for cfg in (TheoryConfig(), TheoryConfig(singleton_axioms=False),
                TheoryConfig(right_contexts_in_forall=True), FOCUSED_D):
        assert check(derivation, cfg, table_for(d)).accepted


# ---------------------------------------------------------------------------
# lemma and its corollary

@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_lemma1_accepts_focused_rejects_unfocused(m):
    d = schematic_domain("D", m)
    derivation = derive_lemma1(None, "A", d, cfg=FOCUSED_D)
    table = table_for(d)
    assert check(derivation, FOCUSED_D, table).accepted
    rejected = check(derivation, TheoryConfig(), table)
    assert not rejected.accepted
    assert rejected.first_failure.rule is RuleId.AX_FOCUS


def test_lemma1_deep_domain_builds_checks_and_renders():
    d = schematic_domain("D", 2000)
    derivation = derive_lemma1((ContextVar("G"),), "A", d, cfg=FOCUSED_D)
    assert check(derivation, FOCUSED_D, table_for(d)).accepted
    root = derivation.conclusion
    assert alpha_eq(parse_sequent(render(root)), root)
    # the open leaf carries the 2000-conjunct chain
    (leaf,) = [n for n in derivation.walk() if not n.premises
               and n.rule is RuleId.HYPOTHESIS]
    assert alpha_eq(parse_sequent(render(leaf.conclusion)), leaf.conclusion)


def test_prop1_large_domain_checks_in_memory():
    d = schematic_domain("D", 520)
    derivation = derive_prop1("A", d, cfg=FOCUSED_D)
    assert check(derivation, FOCUSED_D, table_for(d)).accepted


def test_lemma1_single_open_leaf():
    d = schematic_domain("D", 3)
    derivation = derive_lemma1(None, "A", d, cfg=FOCUSED_D)
    report = check(derivation, FOCUSED_D, table_for(d))
    assert [render(a) for a in report.assumptions] == \
        ["G |- A(<t1, 1/3>) & A(<t2, 1/3>) & A(<t3, 1/3>)"]


def test_lemma1_m2_has_seven_rule_steps():
    d = schematic_domain("D", 2)
    derivation = derive_lemma1(None, "A", d, cfg=FOCUSED_D)
    nodes = list(derivation.walk())
    applications = [n for n in nodes
                    if n.rule not in (RuleId.HYPOTHESIS, RuleId.AX_FOCUS)]
    assert len(applications) == 7


def test_lemma1_singleton_via_singleton_axiom():
    u = Domain("{u}", (Sharp("u"),), kind="singleton")
    derivation = derive_lemma1((Atom("A", (Sharp("u"),)),), "A", u,
                               cfg=TheoryConfig())
    assert render(derivation.conclusion) == "A(#u) |- forall x in {u} . A(x)"
    report = check(derivation, TheoryConfig(), table_for(u))
    assert report.accepted
    off = TheoryConfig(singleton_axioms=False)
    assert not check(derivation, off, table_for(u)).accepted


def test_lemma1_unfocused_precondition():
    d = schematic_domain("D", 2)
    with pytest.raises(PreconditionError):
        derive_lemma1(None, "A", d, cfg=TheoryConfig())


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_prop1_closed_derivation(m):
    d = schematic_domain("D", m)
    derivation = derive_prop1("A", d, cfg=FOCUSED_D)
    report = check(derivation, FOCUSED_D, table_for(d))
    assert report.accepted
    assert report.assumptions == []
    root = derivation.conclusion
    assert isinstance(root.antecedent[0], (Atom,)) or m > 1
    assert render(root).endswith("|- forall x in D . A(x)")


def test_prop1_unfocused_error():
    with pytest.raises(PreconditionError) as err:
        derive_prop1("A", schematic_domain("D", 2), cfg=TheoryConfig())
    assert "focus axiom unavailable" in str(err.value)


# ---------------------------------------------------------------------------
# the converse direction

@pytest.mark.parametrize("m", [2, 3])
def test_prop2_chain_checks(m):
    d = schematic_domain("D", m)
    derivation = derive_prop2(d)
    report = check(derivation, TheoryConfig(), table_for(d))
    assert report.accepted, report.summary()
    want = " \\/ ".join(f"z = <t{i}, 1/{m}>" for i in range(1, m + 1))
    assert render(derivation.conclusion) == f"z in D |- {want}"


def test_prop2_stage_list():
    d = schematic_domain("D", 2)
    derivation = derive_prop2(d)
    rules = [n.rule for n in derivation.walk()]
    # post-order: the existential-witness branch first, then the dualized
    # chain from the hypothesis, then the closing cut
    assert rules == [
        RuleId.REFLEXIVITY, RuleId.WEAKEN_L, RuleId.EXISTS_R,
        RuleId.HYPOTHESIS, RuleId.EQ_FORALL_R, RuleId.DUALIZE,
        RuleId.EQ_EXISTS_L, RuleId.CUT,
    ]


def test_prop2_dualize_step_matches_displayed_sequents():
    d = schematic_domain("D", 2)
    derivation = derive_prop2(d)
    dual_node = [n for n in derivation.walk() if n.rule is RuleId.DUALIZE][0]
    premise = dual_node.premises[0].conclusion
    assert alpha_eq(premise, parse_sequent(
        "z != <t1, 1/2> & z != <t2, 1/2>, y in D |- z != y"))
    assert alpha_eq(dual_node.conclusion, parse_sequent(
        "y in D, z = y |- z = <t1, 1/2> \\/ z = <t2, 1/2>"))
    assert alpha_eq(dual_node.conclusion, dualize(premise))


def test_prop2_closes_loop_with_prop1():
    d = schematic_domain("D", 2)
    hyp = derive_prop1(("w", Neq(Var("z"), Var("w"))), d, cfg=FOCUSED_D)
    assert alpha_eq(hyp.conclusion, prop2_hypothesis(d))
    derivation = derive_prop2(d, hypothesis=hyp)
    report = check(derivation, FOCUSED_D, table_for(d))
    assert report.accepted
    assert report.assumptions == []


def test_prop2_rejects_mismatched_hypothesis():
    d = schematic_domain("D", 2)
    wrong = derive_prop1("A", d, cfg=FOCUSED_D)
    with pytest.raises(PreconditionError):
        derive_prop2(d, hypothesis=wrong)


# ---------------------------------------------------------------------------
# generalization

def _batch_single():
    g = ContextVar("G")
    terms = (Outcome("t1", HALF), Outcome("t2", HALF))
    return [Judgement((g,), (Atom("A", (t,)),), (t,)) for t in terms]


def test_generalize_single():
    table = DomainTable()
    sequent, derivation = generalize(_batch_single(), table=table)
    assert render(sequent) == "G, z in D |- A(z)"
    assert check(derivation, TheoryConfig(), table).accepted
    assert table.resolve("D").focused


def test_generalize_shape_errors():
    g = ContextVar("G")
    t = Outcome("t1", Fraction(1))
    with pytest.raises(PreconditionError):
        generalize([])
    with pytest.raises(PreconditionError):
        generalize([Judgement((g,), (Atom("A", (t,)),), (Var("x"),))])
    mixed = [Judgement((g,), (Atom("A", (t,)),), (t,)),
             Judgement((ContextVar("H"),), (Atom("A", (t,)),), (t,))]
    with pytest.raises(PreconditionError):
        generalize(mixed)
    # two formulas at one term: the shape of a correlated judgement
    with pytest.raises(PreconditionError):
        generalize([Judgement((g,), (Atom("A", (t,)), Atom("A'", (t,))),
                              (t,))])


# ---------------------------------------------------------------------------
# reversibility

def test_reversibility_focused_domain():
    d = schematic_domain("D", 2)
    verdict = check_reversibility(d, FOCUSED_D)
    assert verdict.reversible
    report = check(verdict.witness, FOCUSED_D, table_for(d))
    assert report.accepted
    # the loop instantiates the generalized sequent at every outcome
    assert alpha_eq(verdict.witness.conclusion, report.assumptions[0])
    subst_nodes = [n for n in verdict.witness.walk()
                   if n.rule is RuleId.SUBST]
    assert [render(n.conclusion) for n in subst_nodes] == [
        "G, <t1, 1/2> in D |- A(<t1, 1/2>)",
        "G, <t2, 1/2> in D |- A(<t2, 1/2>)",
    ]


def test_reversibility_unfocused_names_missing_axiom():
    d = schematic_domain("D", 2)
    verdict = check_reversibility(d, TheoryConfig())
    assert not verdict.reversible
    assert verdict.witness is None
    assert verdict.missing_axiom == "AX_FOCUS(D)"


def test_reversibility_singleton_with_axioms_on():
    u = Domain("{u}", (Sharp("u"),), kind="singleton")
    verdict = check_reversibility(u, TheoryConfig())
    assert verdict.reversible
    assert check(verdict.witness, TheoryConfig(), table_for(u)).accepted
    off = check_reversibility(u, TheoryConfig(singleton_axioms=False,
                                              focused_domains=frozenset()))
    assert not off.reversible


# ---------------------------------------------------------------------------
# uncertainty

def test_uncertainty_spec_example():
    uy = Domain("DUY", (Outcome("up_y", HALF), Outcome("down_y", HALF)),
                kind="uniform")
    base = parse_sequent("G |- A_f(#up_z)")
    out = build_uncertainty(base, uy)
    assert render(out) == "G |- A_f(#up_z), bot_Y"


def test_uncertainty_bot_round_trip():
    from rfod.calculus import equation_step
    uy = Domain("DY", (Outcome("up_y", HALF), Outcome("down_y", HALF)),
                kind="uniform")
    base = parse_sequent("G |- A_f(#up_z)")
    out = build_uncertainty(base, uy)
    assert render(out) == "G |- A_f(#up_z), bot_Y"
    back = equation_step(out, RuleId.EQ_BOT_R, "backward")
    assert back == [base]
    forth = equation_step(base, RuleId.EQ_BOT_R, "forward", {"label": "Y"})
    assert forth == [out]


def test_uncertainty_rejects_non_uniform():
    skew = Domain("DW", (Outcome("a", Fraction(7, 10)),
                         Outcome("b", Fraction(3, 10))))
    with pytest.raises(PreconditionError) as err:
        build_uncertainty(parse_sequent("G |- A(z)"), skew)
    assert "not uniform" in str(err.value)


# ---------------------------------------------------------------------------
# collapse and repeatability

def test_collapse_and_repeat_shapes():
    d = schematic_domain("D", 2)
    collapse, repeat = derive_collapse_and_repeat(d, 1)
    assert render(collapse.conclusion) == "forall x in D . A(x) |- A^f(#t1)"
    assert render(repeat.conclusion) == \
        "forall x in D . A(x) |- forall x in {t1} . A^f(x)"
    table = table_for(d)
    assert check(collapse, TheoryConfig(), table).accepted
    assert check(repeat, TheoryConfig(), table).accepted


def test_collapse_rejected_without_singleton_axioms():
    d = schematic_domain("D", 2)
    collapse, repeat = derive_collapse_and_repeat(d, 2)
    off = TheoryConfig(singleton_axioms=False)
    table = table_for(d)
    assert not check(collapse, off, table).accepted
    assert not check(repeat, off, table).accepted
    with pytest.raises(PreconditionError):
        derive_collapse_and_repeat(d, 1, cfg=off)


def test_collapse_index_out_of_range():
    d = schematic_domain("D", 2)
    with pytest.raises(PreconditionError):
        derive_collapse_and_repeat(d, 3)
    with pytest.raises(PreconditionError):
        derive_collapse_and_repeat(d, 0)


def test_remeasure_reobtains_sharp_assertion():
    d = schematic_domain("D", 2)
    again = derive_remeasure(d, 1)
    assert render(again.conclusion) == \
        "forall x in {t1} . A^f(x) |- A^f(#t1)"
    assert check(again, TheoryConfig(), table_for(d)).accepted


# ---------------------------------------------------------------------------
# distributivity

def _dist_domains():
    return schematic_domain("DZ", 2), schematic_domain("DZ'", 2)


def test_distributivity_classical_mode():
    da, db = _dist_domains()
    classical = TheoryConfig(right_contexts_in_forall=True)
    nested, split = derive_distributivity(da, db, cfg=classical)
    table = table_for(da, db)
    assert render(nested.conclusion) == \
        "G |- forall x in DZ . forall x' in DZ' . A(x) * A'(x')"
    assert render(split.conclusion) == \
        "G |- (forall x in DZ . A(x)) * (forall x' in DZ' . A'(x'))"
    assert check(nested, classical, table).accepted
    assert check(split, classical, table).accepted


def test_distributivity_split_rejected_in_basic_mode():
    da, db = _dist_domains()
    classical = TheoryConfig(right_contexts_in_forall=True)
    nested, split = derive_distributivity(da, db, cfg=classical)
    basic = TheoryConfig()
    table = table_for(da, db)
    report = check(split, basic, table)
    assert not report.accepted
    assert report.first_failure.rule is RuleId.EQ_FORALL_R
    assert "right context" in report.first_failure.reason
    # the nested route never opens a right context
    assert check(nested, basic, table).accepted


def test_distributivity_precondition():
    da, db = _dist_domains()
    with pytest.raises(PreconditionError):
        derive_distributivity(da, db, cfg=TheoryConfig())
    with pytest.raises(PreconditionError, match="takes a predicate symbol"):
        derive_distributivity(da, db, ("h", Atom("B", (Var("h"),))))


def test_distributivity_primes_its_one_predicate():
    """The second variable's predicate is the first one's, primed."""
    da, db = _dist_domains()
    table = table_for(da, db)
    nested, split = derive_distributivity(da, db, "B")
    leaf = split
    while leaf.premises:
        leaf = leaf.premises[0]
    assert render(leaf.conclusion) == "G, z in DZ, y in DZ' |- B(z), B'(y)"
    assert render(split.conclusion) == \
        "G |- (forall x in DZ . B(x)) * (forall x' in DZ' . B'(x'))"
    classical = TheoryConfig(right_contexts_in_forall=True)
    assert check(nested, classical, table).accepted
    assert check(split, classical, table).accepted


def test_distributivity_shapes_outside_dual_fragment():
    da, db = _dist_domains()
    classical = TheoryConfig(right_contexts_in_forall=True)
    nested, split = derive_distributivity(da, db, cfg=classical)
    from rfod.errors import FragmentError
    with pytest.raises(FragmentError):
        dualize(nested.conclusion)
    with pytest.raises(FragmentError):
        dualize(split.conclusion)


# ---------------------------------------------------------------------------
# randomized reversibility corpus

def test_reversibility_matches_focus_over_random_corpus():
    rng = make_rng(23)
    from gen import random_domain
    for k in range(100):
        domain = random_domain(rng, name=f"D{k}")
        focused = rng.random() < 0.5
        singleton_axioms = rng.random() < 0.5
        cfg = TheoryConfig(
            singleton_axioms=singleton_axioms,
            focused_domains=frozenset({domain.name} if focused else ()))
        verdict = check_reversibility(domain, cfg)
        expected = focused or (domain.kind == "singleton" and singleton_axioms)
        assert verdict.reversible == expected, (domain, cfg)
        if verdict.reversible:
            report = check(verdict.witness, cfg, DomainTable([domain]))
            assert report.accepted, report.summary()
        else:
            assert verdict.missing_axiom == f"AX_FOCUS({domain.name})"
