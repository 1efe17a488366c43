"""Value semantics of the syntax nodes and the records: immutability,
equality and hash, repr, keyword construction, arity, copy and pickle."""
import copy
import pickle
from fractions import Fraction

import pytest

from rfod.calculus import (
    CheckReport, Derivation, ProofScript, RuleId, StepReport, TheoryConfig,
)
from rfod.syntax import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, Domain, DomainTable, Eq,
    Exists, Forall, Member, Neq, Or, Outcome, Sequent, Sharp, Star, Var,
    free_vars, parse_sequent,
)
from rfod.theorems import Judgement, ReversibilityVerdict


def _domain(**kw):
    return Domain("D", (Outcome("t1", Fraction(1, 2)),
                        Outcome("t2", Fraction(1, 2))), **kw)


def _frozen_values():
    a = Atom("A", (Var("x"),))
    s = parse_sequent("G, z in D |- A(z)")
    return [
        (Var("x"), "name"),
        (Outcome("s", Fraction(1, 2)), "prob"),
        (And(a, a), "left"),
        (Forall("x", "D", a), "body"),
        (s, "antecedent"),
        (_domain(), "focused"),
        (TheoryConfig(), "singleton_axioms"),
        (Derivation(s, RuleId.HYPOTHESIS), "params"),
        (Judgement((ContextVar("G"),), (a,), (Var("x"),)), "terms"),
    ]


@pytest.mark.parametrize("value,field", _frozen_values())
def test_fields_cannot_be_assigned_or_deleted(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert getattr(value, field) is before


def test_term_reprs_name_their_fields():
    # error texts print terms with these reprs
    assert repr(Var("x")) == "Var(name='x')"
    assert repr(Outcome("s", Fraction(1, 2))) == \
        "Outcome(state='s', prob=Fraction(1, 2))"
    assert repr(Outcome("s", 1)) == "Outcome(state='s', prob=Fraction(1, 1))"
    assert repr(Sharp("s")) == "Sharp(state='s')"


def test_record_reprs_name_their_fields():
    assert repr(_domain(focused=True, kind="uniform")) == (
        "Domain(name='D', elements=(Outcome(state='t1', prob=Fraction(1, 2)), "
        "Outcome(state='t2', prob=Fraction(1, 2))), focused=True, "
        "kind='uniform')")
    assert repr(TheoryConfig()) == (
        "TheoryConfig(singleton_axioms=True, focused_domains=frozenset(), "
        "right_contexts_in_forall=False)")
    s = parse_sequent("|- A(x)")
    assert repr(StepReport(1, RuleId.CUT, None, s, True)) == (
        "StepReport(index=1, rule=<RuleId.CUT: 'cut'>, direction=None, "
        "conclusion=Sequent('|- A(x)'), ok=True, reason=None)")
    assert repr(Derivation(s, RuleId.HYPOTHESIS)) == \
        "Derivation(hypothesis, Sequent('|- A(x)'))"
    assert repr(ReversibilityVerdict("D", False)) == (
        "ReversibilityVerdict(domain='D', reversible=False, witness=None, "
        "missing_axiom=None)")
    assert repr(Judgement((), (), ())) == \
        "Judgement(gamma=(), succedents=(), terms=())"


def test_value_records_compare_and_hash_by_value():
    a = Atom("A", (Var("x"),))
    for make in (lambda: _domain(focused=True),
                 lambda: TheoryConfig(focused_domains={"D"}),
                 lambda: Judgement([ContextVar("G")], [a], [Var("x")]),
                 lambda: ReversibilityVerdict("D", True)):
        x, y = make(), make()
        assert x is not y and x == y and hash(x) == hash(y)
    assert _domain() != _domain(focused=True)
    assert TheoryConfig() != TheoryConfig(singleton_axioms=False)
    assert Judgement((), (a,), ()) != Judgement((), (), ())


def test_mutable_records_compare_by_value_and_do_not_hash():
    s = parse_sequent("|- A(x)")
    assert StepReport(1, RuleId.CUT, None, s, True) == \
        StepReport(1, RuleId.CUT, None, parse_sequent("|- A(x)"), True)
    assert StepReport(1, RuleId.CUT, None, s, True) != \
        StepReport(2, RuleId.CUT, None, s, True)
    report = CheckReport(True, [], None, [], [], [])
    assert report == CheckReport(True, [], None, [], [], [])
    table = DomainTable()
    assert ProofScript(table) == ProofScript(table)
    assert ProofScript() != ProofScript()  # two tables, compared by identity
    for value in (StepReport(1, RuleId.CUT, None, s, True),
                  report, ProofScript()):
        with pytest.raises(TypeError):
            hash(value)
    step = StepReport(1, RuleId.CUT, None, s, True)
    step.reason = "set"
    assert step == StepReport(1, RuleId.CUT, None, s, True, "set")


def test_derivations_compare_by_identity():
    s = parse_sequent("|- A(x)")
    d = Derivation(s, RuleId.HYPOTHESIS)
    e = Derivation(s, RuleId.HYPOTHESIS)
    assert d == d and d != e
    assert len({d, e, d}) == 2
    assert hash(d) == object.__hash__(d)


def test_syntax_nodes_compare_by_structure():
    a = Atom("A", [Var("x")])
    b = Atom("A", (Var("x"),))
    assert a == b and hash(a) == hash(b)
    assert Outcome("s", 1) == Sharp("s") and hash(Outcome("s", 1)) == \
        hash(Sharp("s"))
    assert Eq(Var("x"), Var("y")) != Neq(Var("x"), Var("y"))
    assert And(a, a) != Or(a, a) != Star(a, a)
    assert Forall("x", "D", a) != Exists("x", "D", a)
    assert Bowtie("x", "D", a, a) == Bowtie("x", "D", a, a)
    assert Correlated("S", a, a) == Correlated("S", a, a)
    assert Sequent([ContextVar("G")], [a]).antecedent == (ContextVar("G"),)


def test_keyword_construction():
    assert Bot(label="Y").label == "Y" and Bot().label is None
    d = _domain(focused=True, kind="uniform")
    assert (d.focused, d.kind) == (True, "uniform")
    assert Domain(name="D", elements=[Sharp("u")], kind="singleton").elements \
        == (Sharp("u"),)
    assert (_domain().focused, _domain().kind) == (False, "measured")
    s = parse_sequent("|- A(x)")
    d = Derivation(s, RuleId.HYPOTHESIS, params={"k": 1})
    assert (d.params, d.direction, d.premises) == ({"k": 1}, None, ())
    leaf = Derivation(conclusion=s, rule=RuleId.HYPOTHESIS)
    assert Derivation(s, RuleId.CUT, premises=[leaf]).premises == (leaf,)
    assert Derivation(s, RuleId.HYPOTHESIS).params == {}
    assert Derivation(s, RuleId.HYPOTHESIS).params is not \
        Derivation(s, RuleId.HYPOTHESIS).params
    cfg = TheoryConfig(right_contexts_in_forall=True,
                       focused_domains=["D", "D"])
    assert cfg.focused_domains == frozenset({"D"})
    assert cfg.singleton_axioms and cfg.right_contexts_in_forall
    assert Member(term=Var("z"), domain="D") == Member(Var("z"), "D")
    assert Forall(var="x", domain="D", body=Bot()).body == Bot()
    assert Outcome(state="s", prob="1/3").prob == Fraction(1, 3)
    assert ProofScript().steps is not ProofScript().steps
    assert ProofScript(steps=[1]).steps == [1]


@pytest.mark.parametrize("make", [
    lambda: Var(), lambda: Var("x", "y"), lambda: Sharp(),
    lambda: Outcome("s"), lambda: And(Bot()), lambda: Eq(Var("x")),
    lambda: Bot("a", "b"), lambda: Forall("x", "D"),
    lambda: Sequent(()), lambda: Atom("A"), lambda: ContextVar(),
    lambda: Domain("D"), lambda: TheoryConfig(True, (), False, 1),
    lambda: StepReport(1, RuleId.CUT),
    lambda: Derivation(parse_sequent("|- A(x)")),
    lambda: Judgement((), ()), lambda: Var(nome="x"),
])
def test_wrong_arity_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_copy_and_pickle_rebuild_equal_values():
    s = parse_sequent("G, z in D |- forall x in D . A(x) & z = <t, 1/2>")
    d = Derivation(s, RuleId.EQ_AND_R, "backward", {"index": 0},
                   (Derivation(s, RuleId.HYPOTHESIS),))
    for value in (s, Var("x"), Eq(Var("x"), Sharp("s")), _domain(),
                  TheoryConfig(focused_domains={"D"}),
                  Judgement((ContextVar("G"),), (), (Var("x"),)),
                  ReversibilityVerdict("D", False)):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
    twin = pickle.loads(pickle.dumps(d))
    assert twin != d  # compared by identity
    assert (twin.conclusion, twin.rule, twin.direction, twin.params) == (
        s, RuleId.EQ_AND_R, "backward", {"index": 0})
    assert twin.premises[0].conclusion == s


def test_cached_variable_names_are_not_a_field():
    """The free-variable cache is a hidden slot: once filled, it shows in
    no field, repr, ==, hash, copy or pickle."""
    s = parse_sequent("G, z in D |- forall x in D . A(x, w) & B(z)")
    fresh = parse_sequent("G, z in D |- forall x in D . A(x, w) & B(z)")
    before = (repr(s), hash(s), pickle.dumps(s))
    assert free_vars(s) == {"z", "w"}
    assert s._var_cache is not None
    assert s._fields() == ("antecedent", "succedent")
    assert (repr(s), hash(s), pickle.dumps(s)) == before
    assert s == fresh and hash(s) == hash(fresh)
    for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(before[2])):
        assert twin == s and not hasattr(twin, "_var_cache")
