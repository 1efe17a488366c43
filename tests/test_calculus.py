"""Equation engine, rules, axioms, dualize, checker and scripts."""
import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

from rfod.calculus import rules
from rfod.cli import DERIVE_TARGETS, main as cli_main
from rfod.errors import DslSyntaxError, FragmentError, RuleError
from rfod.calculus import (
    EQUATIONS, Derivation, ProofScript, RuleId, TheoryConfig, check,
    check_script, dualize, equation_step, parse_script,
    serialize_derivation, derivation_to_json, validate_step,
)
from rfod.syntax import (
    Atom, Bot, Domain, DomainTable, Eq, Member, Or, Outcome, Sequent, Sharp,
    Term, Var, alpha_eq, alpha_eq_all, bound_vars, children, free_vars,
    parse_sequent, parse_term, render, replace_term_occurrences,
)
from gen import make_rng, random_sequent
from rfod.theorems import (
    check_reversibility, derive_collapse_and_repeat, derive_distributivity,
    derive_lemma1, derive_prop1, derive_prop2, derive_reflection,
    schematic_domain,
)

HALF = Fraction(1, 2)


def seq(text):
    return parse_sequent(text)


def domain_D():
    return schematic_domain("D", 2)


# ---------------------------------------------------------------------------
# definitory equations

def test_forall_backward_spec_example():
    out = equation_step(seq("G |- forall x in D . A(x)"),
                        RuleId.EQ_FORALL_R, "backward")
    assert [render(s) for s in out] == ["G, z in D |- A(z)"]


def test_and_backward_spec_example():
    out = equation_step(seq("G |- A(t) & B(t)"), RuleId.EQ_AND_R, "backward")
    assert [render(s) for s in out] == ["G |- A(t)", "G |- B(t)"]


def test_equality_backward_spec_example():
    out = equation_step(seq("G |- A(t1)"), RuleId.EQ_EQUALITY, "backward",
                        {"term": parse_term("t1"), "var": "z"})
    assert [render(s) for s in out] == ["G, z = t1 |- A(z)"]


def test_bowtie_backward_spec_example():
    out = equation_step(seq("G |- bowtie x in DS (A(x); A'(x))"),
                        RuleId.EQ_BOWTIE_R, "backward")
    assert [render(s) for s in out] == ["G, z in DS |- A(z) ,_S A'(z)"]


def test_equation_inversions_round_trip():
    cases = [
        (RuleId.EQ_FORALL_R, seq("G |- forall x in D . A(x)"), None),
        (RuleId.EQ_AND_R, seq("G |- A(t) & B(t)"), None),
        (RuleId.EQ_STAR_R, seq("G |- A(t) * B(t), C(t)"), {"slot": 0}),
        (RuleId.EQ_BOT_R, seq("G |- A(t), bot_Y"), {"label": "Y"}),
        (RuleId.EQ_OR_L, seq("G, A(t) \\/ B(t) |- C(t)"), None),
        (RuleId.EQ_EXISTS_L, seq("G, exists x in D . A(x) |- C(t)"), None),
        (RuleId.EQ_BOWTIE_R, seq("G |- bowtie x in DS (A(x); A'(x))"), None),
    ]
    for eq, start, params in cases:
        plain = equation_step(start, eq, "backward", params)
        back = equation_step(plain if len(plain) > 1 else plain[0],
                             eq, "forward", params)
        assert len(back) == 1 and alpha_eq(back[0], start), eq


def test_equality_inversion_round_trip():
    start = seq("G |- A(t1)")
    enriched = equation_step(start, RuleId.EQ_EQUALITY, "backward",
                             {"term": parse_term("t1"), "var": "z"})[0]
    back = equation_step(enriched, RuleId.EQ_EQUALITY, "forward")
    assert alpha_eq(back[0], start)


def test_forall_backward_freshness_violation():
    with pytest.raises(RuleError):
        equation_step(seq("A(z) |- forall x in D . A(x)"),
                      RuleId.EQ_FORALL_R, "backward", {"var": "z"})


def test_forall_right_context_guard():
    s = seq("G, z in D |- A(z), B")
    with pytest.raises(RuleError):
        equation_step(s, RuleId.EQ_FORALL_R, "forward", {"slot": 0})
    classical = TheoryConfig(right_contexts_in_forall=True)
    out = equation_step(s, RuleId.EQ_FORALL_R, "forward", {"slot": 0},
                        cfg=classical)
    assert render(out[0]) == "G |- forall x in D . A(x), B"


def _forward(text, eq, params=None):
    plain = [seq(t) for t in text.split(" ;; ")]
    return equation_step(plain if len(plain) > 1 else plain[0], eq,
                         "forward", params)


@pytest.mark.parametrize("eq,plain,params", [
    # the bound variable is free elsewhere
    (RuleId.EQ_FORALL_R, "A(z), z in D |- B(z)", None),
    (RuleId.EQ_EXISTS_L, "A(z), B(z), z in D |- C", {"body": 1}),
    (RuleId.EQ_BOWTIE_R, "A(z), z in DS |- B(z) ,_S C(z)", None),
    # the universal takes no right context in basic mode
    (RuleId.EQ_FORALL_R, "G, z in D |- A(z), B", {"slot": 0}),
    # the correlation label does not match the domain
    (RuleId.EQ_BOWTIE_R, "G, z in DS |- A(z) ,_T B(z)", None),
    # two premises that differ away from the part
    (RuleId.EQ_AND_R, "G |- A ;; G' |- B", None),
    (RuleId.EQ_OR_L, "A, C |- D ;; B, E |- D", {"index": 0}),
    (RuleId.EQ_OR_L, "A |- C ;; B |- D", None),
    # star slots out of range
    (RuleId.EQ_STAR_R, "G |- A, B", {"slot": 1}),
    (RuleId.EQ_STAR_R, "G |- A, B", {"slot": -1}),
])
def test_forward_reading_side_conditions(eq, plain, params):
    with pytest.raises(RuleError):
        _forward(plain, eq, params)


@pytest.mark.parametrize("eq,plain,name", [
    # no succedent item holds the membership variable z free
    (RuleId.EQ_FORALL_R, "G, z in D |- A(x), B(x)", "Forall"),
    # three succedent items, no slot to say which two
    (RuleId.EQ_STAR_R, "G |- A(x), B(x), C(x)", "Star"),
])
def test_forward_reading_needs_the_slot(eq, plain, name):
    with pytest.raises(RuleError) as err:
        _forward(plain, eq)
    assert str(err.value) == (f"cannot tell where the parts of the {name} "
                              "are, pass slot=<index>")


@pytest.mark.parametrize("eq,plain,params", [
    # bound= would capture a free variable
    (RuleId.EQ_EXISTS_L, "A(z), y in D |- C", {"bound": "z"}),
    (RuleId.EQ_BOWTIE_R, "y in DS |- A(y, z) ,_S B(y)", {"bound": "z"}),
    # a membership the decomposition would not put there
    (RuleId.EQ_FORALL_R, "z in D, B |- A(z)", {"member": 0}),
    # positions out of range
    (RuleId.EQ_FORALL_R, "G, z in D |- A(z)", {"slot": 3}),
    (RuleId.EQ_EXISTS_L, "A(z), z in D |- C", {"member": 7}),
    (RuleId.EQ_OR_L, "A |- C ;; A |- C", {"index": 5}),
])
def test_forward_reading_rejects_what_does_not_decompose_back(eq, plain,
                                                              params):
    with pytest.raises(RuleError):
        _forward(plain, eq, params)


def test_forward_reading_parameters_mean_what_decomposition_reads():
    s = seq("z in D |- forall x in E . A(x, z)")
    out = _forward("z in D |- forall x in E . A(x, z)", RuleId.EQ_FORALL_R,
                   {"bound": "x"})
    assert render(out[0]) == "|- forall x in D . forall y in E . A(y, x)"
    back = equation_step(out[0], RuleId.EQ_FORALL_R, "backward", {"var": "z"})
    assert alpha_eq(back[0], s)
    # the existential goes where index= puts it, as decomposition reads it
    out = _forward("A(z), z in D, B |- C", RuleId.EQ_EXISTS_L, {"index": 1})
    assert render(out[0]) == "B, exists x in D . A(x) |- C"


def test_forward_reading_renders_only_on_failure(monkeypatch):
    # the message naming the composed sequent is built only when it is
    # raised, so neither a forward step nor a builder pays for it
    rendered = []
    monkeypatch.setattr(rules, "render_sequent",
                        lambda s: rendered.append(s) or "")
    for text, eq in (("G, z in D |- A(z)", RuleId.EQ_FORALL_R),
                     ("G |- A(t) ;; G |- B(t)", RuleId.EQ_AND_R),
                     ("A(z), z in D |- C(t)", RuleId.EQ_EXISTS_L),
                     ("G |- A(t), B(t)", RuleId.EQ_BOT_R)):
        _forward(text, eq)
    for _ in _steps_with_premises(3):
        pass
    assert rendered == []
    with pytest.raises(RuleError):
        _forward("A(z), z in D |- B(z)", RuleId.EQ_FORALL_R)
    assert rendered


def test_bot_requires_right_context():
    with pytest.raises(RuleError):
        equation_step(seq("G |- bot"), RuleId.EQ_BOT_R, "backward")


def test_star_keeps_context():
    out = equation_step(seq("G |- A(t) * B(t), C(t)"), RuleId.EQ_STAR_R, "backward")
    assert render(out[0]) == "G |- A(t), B(t), C(t)"


def test_binder_var_must_match_plain_side():
    # var= is passed to the rules rewrite as given, never overridden by the
    # membership the plain side happens to carry
    reflection = _reflection_derivation()
    identity = reflection.premises
    assert validate_step(reflection.conclusion, RuleId.EQ_FORALL_R,
                         "backward", identity, {"var": "z"}) is None
    with pytest.raises(RuleError, match="do not match eq_forall_r"):
        validate_step(reflection.conclusion, RuleId.EQ_FORALL_R, "backward",
                      identity, {"var": "y"})
    opened = seq("y in D, z = y |- z = t1 \\/ z = t2")
    closed = seq("exists x in D . z = x |- z = t1 \\/ z = t2")
    for var in (None, "y"):
        params = {"index": 0, "member": 0, "body": 1}
        if var:
            params["var"] = var
        assert validate_step(closed, RuleId.EQ_EXISTS_L, "forward",
                             [opened], params) is None
    with pytest.raises(RuleError, match="do not match eq_exists_l"):
        validate_step(closed, RuleId.EQ_EXISTS_L, "forward", [opened],
                      {"index": 0, "member": 0, "body": 1, "var": "w"})


def _steps_with_premises(m):
    """Every node with premises of the derive builders at size m."""
    d = schematic_domain("D", m)
    cfg = TheoryConfig(focused_domains=frozenset({"D"}),
                       right_contexts_in_forall=True)
    roots = [derive_reflection(d), derive_lemma1(None, "A", d, cfg=cfg),
             derive_prop1("A", d, cfg=cfg), derive_prop2(d),
             check_reversibility(d, cfg).witness,
             derive_collapse_and_repeat(d, 1)[1],
             *derive_distributivity(schematic_domain("DZ", m),
                                    schematic_domain("DZ'", m), cfg=cfg)]
    table = DomainTable([d])
    for root in roots:
        for node in root.walk():
            if node.premises:
                yield node, cfg, table


def _terms(node):
    """Every term below a syntax node, in reading order."""
    if isinstance(node, Term):
        return [node]
    return [t for kid in children(node) for t in _terms(kid)]


def test_equation_mutants_rejected():
    """Term mutants of the conclusion of every step with premises, and
    every equation step read in the other direction.  Weakening takes any
    formula, so weaken_l survives a mutant of the formula it adds."""
    mutants = flipped = 0
    survivors = []
    for m in (2, 3):
        for node, cfg, table in _steps_with_premises(m):
            c = node.conclusion
            assert validate_step(c, node.rule, node.direction, node.premises,
                                 node.params, cfg, table) is None
            for t in dict.fromkeys(_terms(c)):
                k = 1
                while True:
                    mutant = replace_term_occurrences(c, t, Sharp("fresh"),
                                                      positions=[k])
                    if mutant == c:
                        break
                    try:
                        validate_step(mutant, node.rule, node.direction,
                                      node.premises, node.params, cfg, table)
                        survivors.append((node.rule, render(mutant)))
                    except RuleError:
                        pass
                    mutants += 1
                    k += 1
            if node.rule not in EQUATIONS:
                continue
            other = "backward" if node.direction == "forward" else "forward"
            with pytest.raises(RuleError):
                validate_step(c, node.rule, other, node.premises,
                              node.params, cfg, table)
            flipped += 1
    assert survivors == [(RuleId.WEAKEN_L, "#fresh in D |- z = z")] * 2
    assert (mutants, flipped) == (296, 64)


def _derived_scripts(tmp_path, m):
    """The parsed script of every derive target at size m."""
    path = tmp_path / f"m{m}.script"
    for target in DERIVE_TARGETS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(["derive", target, "--m", str(m), "--focused",
                             "D", "--out", str(path)]) == 0
        yield parse_script(path.read_text())


def _other_values(key, value):
    """Other values of the kind of a step parameter."""
    if isinstance(value, int):
        return [value - 1, value + 1]
    if key == "pick":
        return [{"left": "right", "right": "left"}[value]]
    if key == "term":
        return [Sharp("fresh")]
    if key in ("cut", "formula"):
        return [Atom("Fresh", ())]
    return [value + "9"]  # a variable, label, state or domain name


def test_parameter_mutants_rejected(tmp_path):
    mutants = 0
    for m in (2, 3):
        for script in _derived_scripts(tmp_path, m):
            done = {}
            for step_id, rule, direction, params, refs, c in script.steps:
                done[step_id] = c
                premises = [done[r] for r in refs]
                for key, value in params.items():
                    for other in _other_values(key, value):
                        with pytest.raises(RuleError):
                            validate_step(c, rule, direction, premises,
                                          dict(params, **{key: other}),
                                          script.config, script.domains)
                        mutants += 1
    assert mutants == 220


def _script_mutants(tmp_path):
    """(m, target, script, step, premise conclusions) of every step of every
    derived script at m in {2, 3}, its earlier steps' conclusions by id."""
    for m in (2, 3):
        for target, script in zip(DERIVE_TARGETS,
                                  _derived_scripts(tmp_path, m)):
            done = {}
            for step in script.steps:
                done[step[0]] = step[5]
                yield m, target, script, step, [done[r] for r in step[4]], done


def _accepts(script, c, rule, direction, premises, params):
    try:
        validate_step(c, rule, direction, premises, params, script.config,
                      script.domains)
        return True
    except RuleError:
        return False


def test_premise_mutants_rejected(tmp_path):
    """One premise repointed at an earlier step with another conclusion,
    and the two premises of a step swapped.  exists_r may add the witness
    membership itself, so prop2's survives being pointed at the
    reflexivity leaf instead of its weakening."""
    repointed = swapped = 0
    survivors = []
    for m, target, script, step, premises, done in _script_mutants(tmp_path):
        step_id, rule, direction, params, refs, c = step
        for i, ref in enumerate(refs):
            for other, conclusion in done.items():
                if other == step_id or alpha_eq(conclusion, done[ref]):
                    continue
                mutant = premises[:i] + [conclusion] + premises[i + 1:]
                if _accepts(script, c, rule, direction, mutant, params):
                    survivors.append((m, target, rule, ref, other))
                repointed += 1
        if len(refs) == 2 and not alpha_eq(*premises):
            assert not _accepts(script, c, rule, direction, premises[::-1],
                                params)
            swapped += 1
    assert survivors == [(m, "prop2", RuleId.EXISTS_R, "2", "1")
                         for m in (2, 3)]
    assert (repointed, swapped) == (676, 28)


def test_rule_name_mutants_rejected(tmp_path):
    """Every step renamed to every other rule, in each direction of an
    equation.  A leaf renamed hypothesis is accepted as an open assumption,
    and the singleton axiom is the focus axiom over a one-element domain."""
    renamed = 0
    survivors = []
    for m, target, script, step, premises, _ in _script_mutants(tmp_path):
        step_id, rule, direction, params, refs, c = step
        for other in RuleId:
            if other is rule:
                continue
            for way in ("forward", "backward") if other in EQUATIONS else (
                    None,):
                renamed += 1
                if not _accepts(script, c, other, way, premises, params):
                    continue
                survivors.append((m, target, rule, other))
                if other is not RuleId.HYPOTHESIS:
                    continue
                opened = ProofScript(script.domains, script.predicates,
                                     script.config, steps=[
                    (i, other, None, p, r, s) if i == step_id
                    else (i, ru, d, p, r, s)
                    for i, ru, d, p, r, s in script.steps])
                report = check_script(opened)
                assert report.accepted
                assert any(a is c for a in report.assumptions)
    leaves = {"reflection": [RuleId.IDENTITY],
              "lemma1": [RuleId.AX_FOCUS],
              "prop1": [RuleId.AX_FOCUS, RuleId.IDENTITY],
              "prop2": [RuleId.REFLEXIVITY],
              "prop3": [RuleId.AX_FOCUS] + [RuleId.AX_MEMBER] * 2,
              "collapse": [RuleId.AX_SHARP_MEMBER, RuleId.IDENTITY,
                           RuleId.AX_SINGLETON, RuleId.IDENTITY]}
    expected = []
    for m in (2, 3):
        for target in DERIVE_TARGETS:
            for leaf in leaves.get(target, []) + [RuleId.AX_MEMBER] * (
                    m == 3 and target == "prop3"):
                if leaf is RuleId.AX_SINGLETON:
                    expected.append((m, target, leaf, RuleId.AX_FOCUS))
                expected.append((m, target, leaf, RuleId.HYPOTHESIS))
    assert survivors == expected
    assert renamed == 3496


# ---------------------------------------------------------------------------
# dualize

def test_dualize_prop2_step():
    out = dualize(seq("z != t1 & z != t2, y in D |- z != y"))
    assert render(out) == "y in D, z = y |- z = t1 \\/ z = t2"


def test_dualize_reflexivity():
    assert render(dualize(seq("|- t = t"))) == "t != t |-"


def test_dualize_involution_on_member_first_sequents():
    s = seq("y in D, z = y |- z = t1 \\/ z = t2")
    assert dualize(dualize(s)) == s


def test_dualize_fragment_errors():
    for text in ("G |- A(t) * B(t)", "|- bot",
                 "G |- bowtie x in D (A(x); B(x))",
                 "|- A(t) ,_S B(t)", "A(t) |- z in D"):
        with pytest.raises((FragmentError, RuleError)):
            dualize(seq(text))


# ---------------------------------------------------------------------------
# one-directional rules and axioms (spec examples)

def test_f_subst_spec_example():
    table = DomainTable([Domain("D", (Outcome("s1", HALF),
                                      Outcome("s2", HALF)))])
    assert validate_step(
        seq("(forall x in D.A(x)), <s1,1> in D^f |- A^f(#s1)"),
        RuleId.F_SUBST, None,
        [seq("(forall x in D.A(x)), z in D |- A(z)")],
        table=table) is None


def test_f_subst_gated_by_singleton_axioms():
    table = DomainTable([Domain("D", (Outcome("s1", HALF),
                                      Outcome("s2", HALF)))])
    with pytest.raises(RuleError, match="forgetful substitution is disabled"):
        validate_step(
            seq("(forall x in D.A(x)), <s1,1> in D^f |- A^f(#s1)"),
            RuleId.F_SUBST, None,
            [seq("(forall x in D.A(x)), z in D |- A(z)")],
            cfg=TheoryConfig(singleton_axioms=False), table=table)


@pytest.mark.parametrize("plain,conclusion,accepted", [
    # a binder of the substituted variable keeps its own occurrences
    ("G, z in D |- A(z) & (forall z in D . B(z))",
     "G, #t1 in D^f |- A^f(#t1) & (forall z in D . B(z))", True),
    ("G, z in D |- forall z in D . A(z)",
     "G, #t1 in D^f |- forall z in D . A^f(#t1)", False),
])
def test_f_subst_stops_at_a_binder_of_its_variable(plain, conclusion,
                                                   accepted):
    report = check_script(parse_script(
        "domain D = { <t1, 1/2>, <t2, 1/2> }\n"
        f"step 1 hypothesis :: {plain}\n"
        f"step 2 f_subst var=z state=t1 from 1 :: {conclusion}\n"))
    assert report.accepted == accepted
    if not accepted:
        assert report.first_failure.reason == \
            "the sides of the step do not match f_subst"


def test_ax_singleton_spec_example():
    assert validate_step(seq("z in {u} |- z = u"), RuleId.AX_SINGLETON, None,
                         []) is None
    with pytest.raises(RuleError, match="singleton axiom is disabled"):
        validate_step(seq("z in {u} |- z = u"), RuleId.AX_SINGLETON, None,
                      [], cfg=TheoryConfig(singleton_axioms=False))
    assert validate_step(seq("z in {u} |- z = #u"), RuleId.AX_SINGLETON,
                         None, []) is None


def test_axiom_schemas():
    half = Fraction(1, 2)
    d = Domain("D", (Outcome("a", half), Outcome("b", half)))
    one = Domain("E", (Sharp("a"),), kind="singleton")
    table = DomainTable([d, one])
    cfg = TheoryConfig(focused_domains=frozenset({"D"}))
    cases = [
        # the singleton axiom is the focus schema with one disjunct
        ("z in E |- z = a", RuleId.AX_SINGLETON, {"domain": "E"}, None),
        ("z in D |- z = <a, 1/2>", RuleId.AX_SINGLETON, {},
         "must list the 2 element"),
        ("z in {u} |- z = u", RuleId.AX_SINGLETON, {"domain": "{v}"},
         "not in {v}"),
        # the sharp fact is the membership schema on the companion set
        ("|- #a in D^f", RuleId.AX_SHARP_MEMBER, {"domain": "D"}, None),
        ("|- <a, 1> in D^f", RuleId.AX_SHARP_MEMBER, {}, None),
        ("|- <a, 1/2> in D^f", RuleId.AX_SHARP_MEMBER, {},
         "does not name an element of D^f"),
        ("|- #a in D^f", RuleId.AX_SHARP_MEMBER, {"domain": "E"},
         "not in E^f"),
        ("|- #u in {u}", RuleId.AX_SHARP_MEMBER, {}, None),
        ("|- #a in D", RuleId.AX_SHARP_MEMBER, {},
         "D is not a sharp companion set"),
        ("|- <a, 1/2> in D", RuleId.AX_MEMBER, {"domain": "E"}, "not in E"),
    ]
    for text, rule, params, reason in cases:
        if reason is None:
            assert validate_step(seq(text), rule, None, [], params, cfg,
                                 table) is None
        else:
            with pytest.raises(RuleError, match=re.escape(reason)):
                validate_step(seq(text), rule, None, [], params, cfg, table)
    off = TheoryConfig(singleton_axioms=False)
    for text, rule in (("z in E |- z = a", RuleId.AX_SINGLETON),
                       ("|- #a in D^f", RuleId.AX_SHARP_MEMBER)):
        with pytest.raises(RuleError, match=r"\(singleton_axioms off\)"):
            validate_step(seq(text), rule, None, [], cfg=off, table=table)


def test_exists_r_spec_example():
    assert validate_step(seq("z in D |- exists x in D . z = x"),
                         RuleId.EXISTS_R, None,
                         [seq("z in D |- z = z")]) is None


def test_identity_shape_reject():
    with pytest.raises(RuleError, match="identity holds between formulas"):
        validate_step(seq("G |- A(t1)"), RuleId.IDENTITY, None, [])
    assert validate_step(seq("A(t1) |- A(t1)"), RuleId.IDENTITY, None,
                         []) is None


def test_reflexivity():
    assert validate_step(seq("|- t = t"), RuleId.REFLEXIVITY, None,
                         []) is None
    with pytest.raises(RuleError, match="needs both sides equal"):
        validate_step(seq("|- t = u"), RuleId.REFLEXIVITY, None, [])
    with pytest.raises(RuleError, match="has no premises on the left"):
        validate_step(seq("G |- t = t"), RuleId.REFLEXIVITY, None, [])


def test_ax_focus_respects_declared_order():
    table = DomainTable([domain_D()])
    cfg = TheoryConfig(focused_domains=frozenset({"D"}))
    assert validate_step(seq("z in D |- z = <t1, 1/2> \\/ z = <t2, 1/2>"),
                         RuleId.AX_FOCUS, None, [], cfg=cfg,
                         table=table) is None
    with pytest.raises(RuleError, match="in declared order"):
        validate_step(seq("z in D |- z = <t2, 1/2> \\/ z = <t1, 1/2>"),
                      RuleId.AX_FOCUS, None, [], cfg=cfg, table=table)
    assert validate_step(seq("z in D |- z = t1 \\/ z = t2"), RuleId.AX_FOCUS,
                         None, [], cfg=cfg, table=table) is None
    with pytest.raises(RuleError, match="D is not declared focused"):
        validate_step(seq("z in D |- z = t1 \\/ z = t2"), RuleId.AX_FOCUS,
                      None, [], table=table)


def test_subst_rejects_context_metavariable_collision():
    premise = seq("z, x in D |- A(x)")  # context metavariable named z
    conclusion = seq("z, #u in D |- A(#u)")
    assert validate_step(conclusion, RuleId.SUBST, None, [premise],
                         params={"var": "x", "term": Sharp("u")}) is None
    with pytest.raises(RuleError, match="metavariable"):
        validate_step(seq("z, x in D |- A(x)"), RuleId.SUBST, None,
                      [premise], params={"var": "z", "term": Sharp("u")})


def test_f_subst_rejects_context_metavariable_collision():
    script = parse_script(
        "domain D = { <t1, 1/2>, <t2, 1/2> }\n"
        "step 1 hypothesis :: z, z in D |- A(z)\n"
        "step 2 f_subst var=z state=t1 from 1 :: z, #t1 in D^f |- A^f(#t1)\n")
    report = check_script(script)
    assert not report.accepted
    assert "metavariable" in report.first_failure.reason


def test_subst_inferred_pairs_agree_with_a_lone_parameter():
    text = ("domain D = { <t1, 1/2>, <t2, 1/2> }\n"
            "step 1 hypothesis :: G, z in D |- A(z)\n"
            "step 2 subst %s from 1 :: G, <t1, 1/2> in D |- A(<t1, 1/2>)\n")
    assert check_script(parse_script(text % "var=z")).accepted
    for params in ("var=q", 'term="<t2, 1/2>"'):
        report = check_script(parse_script(text % params))
        assert not report.accepted
        assert "cannot determine the substitution" in \
            report.first_failure.reason


@pytest.mark.parametrize("key", ["positions=1", 'formula="B(x)"'])
def test_a_step_key_the_conclusion_shows_is_refused(tmp_path, capsys, key):
    """positions= and formula= are no step keys: the conclusion shows which
    occurrences an abstraction took and which formula a weakening put in."""
    script = tmp_path / "keys.script"
    script.write_text(
        "step 1 hypothesis :: G |- A(<t1, 1/3>)\n"
        f'step 2 eq_equality backward term="<t1, 1/3>" var=z {key} '
        "from 1 :: G, z = <t1, 1/3> |- A(z)\n")
    assert cli_main(["check", str(script)]) == 2
    assert capsys.readouterr().err == \
        f"error: 2:52: unknown parameter {key.split('=')[0]}\n"


def test_eq_equality_places_its_equality_at_index():
    text = ("step 1 hypothesis :: G |- A(<t1, 1/3>)\n"
            'step 2 eq_equality backward term="<t1, 1/3>" var=z index=0 '
            "from 1 :: z = <t1, 1/3>, G |- A(z)\n")
    assert check_script(parse_script(text)).accepted


def test_eq_equality_abstraction_is_the_inverse_of_its_elimination():
    """equation_step abstracts a term only where the checker accepts the
    step and the elimination gives the plain side back; at a capture, or
    into a variable free in the plain side, it refuses."""
    capture = seq("|- forall z in D . A(<t1, 1/2>)")
    with pytest.raises(RuleError, match="does not decompose back"):
        equation_step(capture, RuleId.EQ_EQUALITY, "backward",
                      {"term": parse_term("<t1, 1/2>"), "var": "z"})
    rng = make_rng(25)
    built = refused = 0
    for _ in range(60):
        s = random_sequent(rng)
        names = (None, "q", *sorted(bound_vars(s))[:1],
                 *sorted(free_vars(s))[:1])
        for t in dict.fromkeys(_terms(s)):
            for var in names:
                p = {"term": t, **({"var": var} if var else {})}
                try:
                    [abstracted] = equation_step(
                        s, RuleId.EQ_EQUALITY, "backward", p)
                except RuleError:
                    refused += 1
                    continue
                built += 1
                j = len(abstracted.antecedent) - 1
                z = abstracted.antecedent[j].left.name
                assert validate_step(abstracted, RuleId.EQ_EQUALITY,
                                     "backward", [s],
                                     {"term": t, "var": z}) is None
                assert equation_step(abstracted, RuleId.EQ_EQUALITY,
                                     "forward", {"index": j}) == [s]
    assert built > 100 and refused > 10


_BOWTIE_DOMAIN = "domain DS = { <s1, 1/2>, <s2, 1/2> } focused\n"


@pytest.mark.parametrize("text", [
    "step 1 hypothesis :: G |- A(x) & B(x), C(x)\n"
    "step 2 eq_and_r backward pick=left from 1 :: G |- A(x)\n",
    "step 1 hypothesis :: G |- C(x), A(x) & B(x)\n"
    "step 2 eq_and_r backward pick=right from 1 :: G |- B(x)\n",
    "step 1 hypothesis :: G |- A(x), C(x)\n"
    "step 2 hypothesis :: G |- B(x), C(x)\n"
    "step 3 eq_and_r forward from 1, 2 :: G |- A(x) & B(x), C(x)\n",
    _BOWTIE_DOMAIN + "step 1 hypothesis :: "
    "G |- bowtie x in DS (A(x); A'(x)), C(y)\n"
    "step 2 eq_bowtie_r backward from 1 :: G, z in DS |- A(z) ,_S A'(z)\n",
    _BOWTIE_DOMAIN + "step 1 hypothesis :: "
    "G, z in DS |- A(z) ,_S A'(z), C(y)\n"
    "step 2 eq_bowtie_r forward from 1 :: "
    "G |- bowtie x in DS (A(x); A'(x)), C(y)\n",
], ids=["and_backward_left", "and_backward_right", "and_forward",
        "bowtie_backward", "bowtie_forward"])
def test_and_and_bowtie_take_a_lone_succedent_item(text):
    # the equations hold only with no right context beside the connective
    report = check_script(parse_script(text))
    assert not report.accepted
    assert report.first_failure.reason == "expected exactly one succedent item"


def test_subst_requires_closed_term():
    premise = seq("G, x in D |- A(x)")
    with pytest.raises(RuleError, match="is not closed"):
        validate_step(seq("G, y in D |- A(y)"), RuleId.SUBST, None,
                      [premise], params={"var": "x", "term": Var("y")})


def test_weaken_l():
    assert validate_step(seq("z in D |- z = z"), RuleId.WEAKEN_L, None,
                         [seq("|- z = z")]) is None


def test_cut_splices_contexts():
    left = seq("z in D |- z = t1 \\/ z = t2")
    right = seq("G, z = t1 \\/ z = t2 |- A(z)")
    assert validate_step(seq("G, z in D |- A(z)"), RuleId.CUT, None,
                         [left, right]) is None
    with pytest.raises(RuleError, match="do not match cut"):
        validate_step(seq("G |- A(z)"), RuleId.CUT, None, [left, right])
    # a fact cut away at the last position leaves a shorter antecedent
    fact = seq("|- #a in D^f")
    used = seq("B(t), #a in D^f |- C(t)")
    assert validate_step(seq("B(t) |- C(t)"), RuleId.CUT, None,
                         [fact, used]) is None


# ---------------------------------------------------------------------------
# checker end to end

def _reflection_derivation():
    closed = seq("forall x in D . A(x) |- forall x in D . A(x)")
    identity = Derivation(closed, RuleId.IDENTITY)
    conclusion = seq("forall x in D . A(x), z in D |- A(z)")
    return Derivation(conclusion, RuleId.EQ_FORALL_R, "backward",
                      {"var": "z"}, (identity,))


def test_check_reflection_tree():
    report = check(_reflection_derivation(), TheoryConfig(),
                   DomainTable([domain_D()]))
    assert report.accepted


def test_check_rejects_disabled_axiom():
    node = Derivation(seq("z in D |- z = <t1, 1/2> \\/ z = <t2, 1/2>"),
                      RuleId.AX_FOCUS, params={"domain": "D"})
    report = check(node, TheoryConfig(), DomainTable([domain_D()]))
    assert not report.accepted
    assert report.first_failure.rule is RuleId.AX_FOCUS


def test_check_collects_assumptions_and_axioms():
    hyp = Derivation(seq("G |- A"), RuleId.HYPOTHESIS)
    node = Derivation(seq("G |- A, bot_Y"), RuleId.EQ_BOT_R, "forward",
                      {"label": "Y"}, (hyp,))
    report = check(node, TheoryConfig())
    assert report.accepted
    assert [render(a) for a in report.assumptions] == ["G |- A"]


@pytest.mark.parametrize("params, reason", [
    ({"foo": "bar"}, "unknown parameter foo"),
    ({"slot": "abc"}, "parameter slot: 'abc' would not read back"),
    ({"slot": -1}, "parameter slot: -1 would not read back"),
    ({"positions": []}, "unknown parameter positions"),
    ({"var": "x y"}, "parameter var: 'x y' would not read back"),
    ({"domain": "in"}, "parameter domain: 'in' would not read back"),
    ({"term": "t1"}, "parameter term: 't1' would not read back"),
    ({"cut": Var("x")}, "parameter cut: Var(name='x') would not read back"),
])
def test_a_parameter_a_script_cannot_carry_is_rejected(params, reason):
    """The in-memory check takes only what a script can carry: a key the
    script syntax knows, with a value whose text reads back as it."""
    node = Derivation(seq("A(x) |- A(x)"), RuleId.IDENTITY, params=params)
    report = check(node)
    assert not report.accepted
    assert report.first_failure.reason.startswith(reason)


def test_the_writers_refuse_a_parameter_a_script_cannot_carry():
    node = Derivation(seq("A(x) |- A(x)"), RuleId.IDENTITY,
                      params={"foo": "bar"})
    for write in (serialize_derivation, derivation_to_json):
        with pytest.raises(RuleError, match="^unknown parameter foo$"):
            write(node)


def test_a_name_parameter_of_none_is_absent():
    hyp = Derivation(seq("G |- A"), RuleId.HYPOTHESIS)
    node = Derivation(seq("G |- A, bot"), RuleId.EQ_BOT_R, "forward",
                      {"label": None}, (hyp,))
    assert check(node).accepted
    text = serialize_derivation(node)
    assert text.splitlines()[-1] == "step 2 eq_bot_r forward from 1 :: " \
        "G |- A, bot"
    assert check_script(parse_script(text)).accepted


def test_rule_functions_refuse_what_completion_filters_out():
    """Guards that no script reaches, since the checker hands the rule
    functions only completed parameters, called directly."""
    s, b = seq("A(x) |- A(x)"), Atom("B", (Var("x"),))
    with pytest.raises(RuleError, match="identity has no premises"):
        rules.conclude(RuleId.IDENTITY, [s], {})
    with pytest.raises(RuleError, match="position 5 out of range"):
        rules.weaken_l(s, {"position": 5, "formula": b})
    with pytest.raises(RuleError, match="exists_r concludes an existential"):
        rules.exists_r(seq("|- B(t)"), {"existential": b, "term": Var("t")})


@pytest.mark.parametrize("s,eq,direction,params,reason", [
    # _compose: where the parts are, what they are, the correlated slot
    ("G, z in D |- A(z)", RuleId.EQ_FORALL_R, "forward", {"slot": 3},
     "succedent position 3 out of range"),
    (["G |- H", "G |- K"], RuleId.EQ_AND_R, "forward", None,
     "the parts of a And must be formulas"),
    ("G, z in DS |- A(z)", RuleId.EQ_BOWTIE_R, "forward", None,
     "a bowtie closes a correlated slot"),
    # the equality abstraction: the term, its fresh variable, the placed
    # equality
    ("G |- A(<t1, 1/3>)", RuleId.EQ_EQUALITY, "backward", {"term": "t1"},
     "term parameter must be a term"),
    ("G |- A(w)", RuleId.EQ_EQUALITY, "backward",
     {"term": Var("z"), "var": "z"},
     "abstracted term and fresh variable coincide"),
    ("G |- A(<t1, 1/3>)", RuleId.EQ_EQUALITY, "backward",
     {"term": parse_term("<t1, 1/3>"), "index": 5}, "index 5 out of range"),
    # equation_step's own arguments
    ("G |- A", RuleId.CUT, "forward", None,
     "cut is not a definitory equation"),
    (["G |- A(x) & B(x)"], RuleId.EQ_AND_R, "backward", None,
     "backward step takes one sequent"),
    ("G |- A(x) & B(x)", RuleId.EQ_AND_R, "sideways", None,
     "unknown direction 'sideways'"),
    ("G |- A", RuleId.EQ_AND_R, "forward", None,
     "eq_and_r composes from 2 sequent(s)"),
    # the equality abstraction without the term it abstracts
    ("G |- A(<t1, 1/3>)", RuleId.EQ_EQUALITY, "backward",
     {"var": "z"}, "equality abstraction needs term=<t>"),
])
def test_equation_step_refuses_what_no_checked_step_hands_it(s, eq, direction,
                                                           params, reason):
    """Guards of the equation engine that no script step reaches, since
    the checker hands it only completed steps, called directly."""
    s = [seq(t) for t in s] if isinstance(s, list) else seq(s)
    with pytest.raises(RuleError) as err:
        equation_step(s, eq, direction, params)
    assert str(err.value) == reason


def test_is_focused_truth_table():
    """Focused by the config or the table, or a singleton under the
    singleton axioms: a {u} literal, declared with the singleton flag or
    not, or a domain of kind singleton."""
    table = DomainTable([
        Domain("D", (Outcome("t1", HALF), Outcome("t2", HALF))),
        Domain("F", (Outcome("t1", HALF), Outcome("t2", HALF)), focused=True),
        Domain("{u}", (Sharp("u"),)),
        Domain("S", (Sharp("v"),), kind="singleton"),
    ])
    focused = {"D": False, "F": True, "{u}": True, "{w}": True, "S": True,
               "E": False}
    for axioms in (True, False):
        cfg = TheoryConfig(singleton_axioms=axioms)
        assert {name: cfg.is_focused(name, table) for name in focused} == \
            {name: f and (axioms or name == "F")
             for name, f in focused.items()}
        by_config = TheoryConfig(axioms, frozenset({"D", "E"}))
        assert by_config.is_focused("D", table)
        assert by_config.is_focused("E", table)


# ---------------------------------------------------------------------------
# scripts

SCRIPT = """
-- tiny example
domain D = { <t1, 1/2>, <t2, 1/2> } focused
step 1 identity :: forall x in D . A(x) |- forall x in D . A(x)
step 2 eq_forall_r backward var=z from 1 :: forall x in D . A(x), z in D |- A(z)
"""


def test_parse_and_check_script():
    script = parse_script(SCRIPT)
    assert script.config.focused_domains == frozenset({"D"})
    report = check_script(script)
    assert report.accepted


def test_script_serialization_round_trip():
    d = _reflection_derivation()
    table = DomainTable([domain_D()])
    text = serialize_derivation(d, table, config=TheoryConfig(),
                                title="round trip")
    script = parse_script(text)
    report = check_script(script)
    assert report.accepted
    again = serialize_derivation(script.root(), script.domains,
                                 config=script.config, title="round trip")
    assert again == text


def test_script_json_matches_text_content():
    d = _reflection_derivation()
    table = DomainTable([domain_D()])
    doc = derivation_to_json(d, table, config=TheoryConfig())
    assert [s["rule"] for s in doc["steps"]] == ["identity", "eq_forall_r"]
    assert doc["steps"][1]["premises"] == [1]
    assert doc["domains"][0]["name"] == "D"
    assert doc["domains"][0]["elements"] == [["t1", 1, 2], ["t2", 1, 2]]


def test_predicate_declaration_round_trips():
    script = parse_script("predicate A/2\nstep 1 identity :: A(x, y) |- "
                          "A(x, y)\n")
    assert script.predicates == {"A": 2}
    text = serialize_derivation(script.root(),
                                predicates=script.predicates)
    assert text.splitlines()[0] == "predicate A/2"
    assert parse_script(text).predicates == {"A": 2}
    doc = derivation_to_json(script.root(), predicates=script.predicates)
    assert doc["predicates"] == {"A": 2}


def test_script_errors():
    with pytest.raises(Exception):
        parse_script("step 1 bogus_rule :: |- t = t")
    with pytest.raises(Exception):
        parse_script("step 1 identity :: A |- A\n"
                     "step 1 identity :: A |- A")
    with pytest.raises(Exception):
        parse_script("step 2 cut from 9 :: A |- A")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.script")),
                         ids=lambda p: p.stem)
def test_golden_scripts_round_trip(path):
    text = path.read_text()
    title = text.splitlines()[0][len("-- "):]
    script = parse_script(text)
    assert serialize_derivation(script.root(), script.domains,
                                script.predicates, script.config,
                                title) == text


@pytest.mark.parametrize("text,line,column,message", [
    ('step 1 identity term="<t1, 1/3> :: A(x) |- A(x)', 1, 33,
     "expected '\"', found '::'"),
    ("step 1 identity term='<t1, 1/3>' :: A(x) |- A(x)", 1, 22,
     "unexpected character \"'\""),
    ("-- header\n  step 1 bogus :: A(x) |- A(x)", 2, 3, "unknown rule bogus"),
    ("step 1 identity from :: A(x) |- A(x)", 1, 1,
     "'from' needs premise ids"),
    ("step 1 identity A(x) |- A(x)", 1, 1, "step line needs ':: <sequent>'"),
    ("step 1 identity slot=abc :: A(x) |- A(x)", 1, 22,
     "parameter slot: expected an integer, found 'abc'"),
    ("step 1 identity position=1;2 :: A(x) |- A(x)", 1, 27,
     "unexpected token ';' in step line"),
    ("step 1 weaken_l position=a :: A(x) |- A(x)", 1, 26,
     "parameter position: expected an integer, found 'a'"),
    ("-- header\npredicate A/x", 2, 13,
     "predicate A: expected an integer, found 'x'"),
    ("domain D = <t1, 1>", 1, 1, "domain D: expected '= { ... }'"),
    ("-- header\n\n  step 1 identity :: A( |- ", 3, 25,
     "expected a term, found '|-'"),
    ("step 1 identity :: A(<t, 3/2>) |- A(<t, 3/2>)", 1, 22,
     "outcome probability must be in (0, 1], got 3/2"),
    ("step 1 hypothesis :: G |- H ,_S A(x)", 1, 29,
     "left side of a correlated comma must be a formula"),
    ("step 1 hypothesis :: G |- A(x) ,_S H", 1, 32,
     "right side of a correlated comma must be a formula"),
])
def test_script_line_error_positions(text, line, column, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_script(text)
    assert (err.value.line, err.value.column, err.value.message) == \
        (line, column, message)


@pytest.mark.parametrize("rule,conclusion,accepted", [
    ("ax_member", "|- <t1, 1/2> in D", True),
    # schematically, a variable named by the state label of an element
    ("ax_member", "|- t2 in D", True),
    ("ax_member", "|- t3 in D", False),
    ("ax_member", "|- <t1, 1/3> in D", False),
    ("ax_member", "|- #t1 in D", False),
    ("ax_sharp_member", "|- #t1 in D^f", True),
    ("ax_sharp_member", "|- <t1, 1> in D^f", True),
    ("ax_sharp_member", "|- t2 in D^f", True),
    ("ax_sharp_member", "|- #t3 in D^f", False),
    ("ax_sharp_member", "|- <t1, 1/2> in D^f", False),
])
def test_membership_fact_names_an_element(rule, conclusion, accepted):
    report = check_script(parse_script(
        "config singleton_axioms on\ndomain D = { <t1, 1/2>, <t2, 1/2> }\n"
        f"step 1 {rule} :: {conclusion}\n"))
    domain = conclusion.split(" in ")[1]
    assert (report.accepted, report.steps[0].reason) == (
        accepted, None if accepted else
        f"term does not name an element of {domain}")


def test_subst_never_accepted_in_reverse():
    # substitution is one-directional: un-substituting a closed term back
    # into a variable is not an instance of the rule
    instance = seq("G, <t1, 1/2> in D |- A(<t1, 1/2>)")
    general = seq("G, z in D |- A(z)")
    assert validate_step(instance, RuleId.SUBST, None, [general], params={
        "var": "z", "term": parse_term("<t1, 1/2>")}) is None
    with pytest.raises(RuleError, match="cannot determine the substitution"):
        validate_step(general, RuleId.SUBST, None, [instance])
    with pytest.raises(RuleError, match="is not closed"):
        validate_step(general, RuleId.SUBST, None, [instance],
                      params={"var": "z", "term": Var("z")})


def test_render_covers_derivations():
    import rfod
    d = _reflection_derivation()
    text = rfod.render(d)
    assert text.splitlines()[0].startswith("step 1 identity")
