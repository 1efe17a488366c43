"""Equation engine, rules, axioms, dualize, checker and scripts."""
import contextlib
import dataclasses
import io
from fractions import Fraction
from pathlib import Path

import pytest

from rfod.cli import DERIVE_TARGETS, main as cli_main
from rfod.errors import DslSyntaxError, FragmentError, RuleError
from rfod.calculus import (
    EQUATIONS, Derivation, RuleId, TheoryConfig, check, check_script,
    dualize, equation_step, parse_script, rule_step, serialize_derivation,
    derivation_to_json, validate_step,
)
from rfod.syntax import (
    Atom, Bot, Domain, DomainTable, Eq, Member, Or, Outcome, Sequent, Sharp,
    Term, Var, alpha_eq, alpha_eq_all, parse_sequent, parse_term, render,
    replace_term_occurrences,
)
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
                        {"term": parse_term("t1"), "var": "z",
                         "positions": [1]})
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
    for var, ok in (("z", True), ("y", False)):
        verdict = rule_step(reflection.conclusion, RuleId.EQ_FORALL_R,
                            identity, {"var": var}, direction="backward")
        assert verdict.ok is ok, verdict.reason
    opened = seq("y in D, z = y |- z = t1 \\/ z = t2")
    closed = seq("exists x in D . z = x |- z = t1 \\/ z = t2")
    for var, ok in ((None, True), ("y", True), ("w", False)):
        params = {"index": 0, "member": 0, "body": 1}
        if var:
            params["var"] = var
        verdict = rule_step(closed, RuleId.EQ_EXISTS_L, [opened], params,
                            direction="forward")
        assert verdict.ok is ok, verdict.reason


def _equation_steps(m):
    d = schematic_domain("D", m)
    cfg = TheoryConfig(focused_domains=frozenset({"D"}),
                       right_contexts_in_forall=True)
    roots = [derive_reflection(d), derive_lemma1(None, "A", d, cfg=cfg),
             derive_prop1("A", d, cfg=cfg), derive_prop2(d),
             check_reversibility(d, cfg).witness,
             derive_collapse_and_repeat(d, 1)[1],
             *derive_distributivity(schematic_domain("DZ", m),
                                    schematic_domain("DZ'", m), cfg=cfg)]
    for root in roots:
        for node in root.walk():
            if node.rule in EQUATIONS:
                yield node, cfg


def _terms(node):
    if isinstance(node, Term):
        yield node
    elif isinstance(node, tuple):
        for item in node:
            yield from _terms(item)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _terms(getattr(node, f.name))


def test_equation_mutants_rejected():
    mutants = flipped = 0
    for m in (2, 3):
        for node, cfg in _equation_steps(m):
            c = node.conclusion
            assert validate_step(c, node.rule, node.direction, node.premises,
                                 node.params, cfg) is None
            for t in dict.fromkeys(_terms(c)):
                k = 1
                while True:
                    mutant = replace_term_occurrences(c, t, Sharp("fresh"),
                                                      positions=[k])
                    if mutant == c:
                        break
                    with pytest.raises(RuleError):
                        validate_step(mutant, node.rule, node.direction,
                                      node.premises, node.params, cfg)
                    mutants += 1
                    k += 1
            other = "backward" if node.direction == "forward" else "forward"
            with pytest.raises(RuleError):
                validate_step(c, node.rule, other, node.premises,
                              node.params, cfg)
            flipped += 1
    assert (mutants, flipped) == (214, 64)


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
    verdict = rule_step(
        seq("(forall x in D.A(x)), <s1,1> in D^f |- A^f(#s1)"),
        RuleId.F_SUBST,
        [seq("(forall x in D.A(x)), z in D |- A(z)")],
        table=table)
    assert verdict.ok, verdict.reason


def test_f_subst_gated_by_singleton_axioms():
    table = DomainTable([Domain("D", (Outcome("s1", HALF),
                                      Outcome("s2", HALF)))])
    verdict = rule_step(
        seq("(forall x in D.A(x)), <s1,1> in D^f |- A^f(#s1)"),
        RuleId.F_SUBST,
        [seq("(forall x in D.A(x)), z in D |- A(z)")],
        cfg=TheoryConfig(singleton_axioms=False), table=table)
    assert not verdict.ok


def test_ax_singleton_spec_example():
    verdict = rule_step(seq("z in {u} |- z = u"), RuleId.AX_SINGLETON, [])
    assert verdict.ok, verdict.reason
    off = rule_step(seq("z in {u} |- z = u"), RuleId.AX_SINGLETON, [],
                    cfg=TheoryConfig(singleton_axioms=False))
    assert not off.ok
    sharp_form = rule_step(seq("z in {u} |- z = #u"), RuleId.AX_SINGLETON, [])
    assert sharp_form.ok


def test_axiom_schemas():
    half = Fraction(1, 2)
    d = Domain("D", (Outcome("a", half), Outcome("b", half)))
    one = Domain("E", (Sharp("a"),), kind="singleton")
    table = DomainTable([d, one])
    cfg = TheoryConfig(focused_domains=frozenset({"D"}))
    cases = [
        # the singleton axiom is the focus schema with one disjunct
        ("z in E |- z = a", RuleId.AX_SINGLETON, {"domain": "E"}, True),
        ("z in D |- z = <a, 1/2>", RuleId.AX_SINGLETON, {}, False),
        ("z in {u} |- z = u", RuleId.AX_SINGLETON, {"domain": "{v}"}, False),
        # the sharp fact is the membership schema on the companion set
        ("|- #a in D^f", RuleId.AX_SHARP_MEMBER, {"domain": "D"}, True),
        ("|- <a, 1> in D^f", RuleId.AX_SHARP_MEMBER, {}, True),
        ("|- <a, 1/2> in D^f", RuleId.AX_SHARP_MEMBER, {}, False),
        ("|- #a in D^f", RuleId.AX_SHARP_MEMBER, {"domain": "E"}, False),
        ("|- #u in {u}", RuleId.AX_SHARP_MEMBER, {}, True),
        ("|- #a in D", RuleId.AX_SHARP_MEMBER, {}, False),
        ("|- <a, 1/2> in D", RuleId.AX_MEMBER, {"domain": "E"}, False),
    ]
    for text, rule, params, ok in cases:
        verdict = rule_step(seq(text), rule, [], params, cfg, table)
        assert verdict.ok is ok, (text, verdict.reason)
    off = TheoryConfig(singleton_axioms=False)
    for text, rule in (("z in E |- z = a", RuleId.AX_SINGLETON),
                       ("|- #a in D^f", RuleId.AX_SHARP_MEMBER)):
        assert "singleton_axioms off" in rule_step(
            seq(text), rule, [], cfg=off, table=table).reason


def test_exists_r_spec_example():
    verdict = rule_step(seq("z in D |- exists x in D . z = x"),
                        RuleId.EXISTS_R, [seq("z in D |- z = z")])
    assert verdict.ok, verdict.reason


def test_identity_shape_reject():
    assert not rule_step(seq("G |- A(t1)"), RuleId.IDENTITY, []).ok
    assert rule_step(seq("A(t1) |- A(t1)"), RuleId.IDENTITY, []).ok


def test_reflexivity():
    assert rule_step(seq("|- t = t"), RuleId.REFLEXIVITY, []).ok
    assert not rule_step(seq("|- t = u"), RuleId.REFLEXIVITY, []).ok
    assert not rule_step(seq("G |- t = t"), RuleId.REFLEXIVITY, []).ok


def test_ax_focus_respects_declared_order():
    table = DomainTable([domain_D()])
    cfg = TheoryConfig(focused_domains=frozenset({"D"}))
    good = rule_step(seq("z in D |- z = <t1, 1/2> \\/ z = <t2, 1/2>"),
                     RuleId.AX_FOCUS, [], cfg=cfg, table=table)
    assert good.ok, good.reason
    swapped = rule_step(seq("z in D |- z = <t2, 1/2> \\/ z = <t1, 1/2>"),
                        RuleId.AX_FOCUS, [], cfg=cfg, table=table)
    assert not swapped.ok
    schematic = rule_step(seq("z in D |- z = t1 \\/ z = t2"),
                          RuleId.AX_FOCUS, [], cfg=cfg, table=table)
    assert schematic.ok
    unfocused = rule_step(seq("z in D |- z = t1 \\/ z = t2"),
                          RuleId.AX_FOCUS, [], table=table)
    assert not unfocused.ok


def test_subst_rejects_context_metavariable_collision():
    premise = seq("z, x in D |- A(x)")  # context metavariable named z
    conclusion = seq("z, #u in D |- A(#u)")
    verdict = rule_step(conclusion, RuleId.SUBST, [premise],
                        params={"var": "x", "term": Sharp("u")})
    assert verdict.ok
    bad = rule_step(seq("z, x in D |- A(x)"), RuleId.SUBST,
                    [premise], params={"var": "z", "term": Sharp("u")})
    assert not bad.ok
    assert "metavariable" in bad.reason


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


def test_eq_equality_reads_positions():
    text = ("step 1 hypothesis :: G |- A(<t1, 1/3>), B(<t1, 1/3>)\n"
            'step 2 eq_equality backward term="<t1, 1/3>" var=z '
            "positions=%s from 1 :: G, z = <t1, 1/3> |- A(z), B(<t1, 1/3>)\n")
    assert check_script(parse_script(text % "1")).accepted
    for positions in ("2", "1;2", "7"):
        report = check_script(parse_script(text % positions))
        assert not report.accepted
        assert "positions=" in report.first_failure.reason


@pytest.mark.parametrize("positions", ["1;2", "0;1"])
def test_eq_equality_positions_name_occurrences(tmp_path, positions):
    # an entry naming no occurrence rejects the step, even when the other
    # entries abstract the step's occurrences
    script = tmp_path / "positions.script"
    script.write_text(
        "step 1 hypothesis :: G |- A(<t1, 1/3>)\n"
        'step 2 eq_equality backward term="<t1, 1/3>" var=z '
        f"positions={positions} from 1 :: G, z = <t1, 1/3> |- A(z)\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["check", str(script)]) == 1
    assert "REJECTED: positions= names no occurrence" in out.getvalue()
    with pytest.raises(RuleError, match="no occurrence 2"):
        equation_step(seq("G |- A(<t1, 1/3>)"), RuleId.EQ_EQUALITY,
                      "backward", {"term": parse_term("<t1, 1/3>"),
                                   "positions": [2]})


@pytest.mark.parametrize("positions,accepted", [
    ("", True), ("positions=1 ", True), ("positions=2 ", False)])
def test_eq_equality_places_its_equality_at_index(positions, accepted):
    text = ("step 1 hypothesis :: G |- A(<t1, 1/3>)\n"
            'step 2 eq_equality backward term="<t1, 1/3>" var=z index=0 '
            f"{positions}from 1 :: z = <t1, 1/3>, G |- A(z)\n")
    assert check_script(parse_script(text)).accepted is accepted


def test_subst_requires_closed_term():
    premise = seq("G, x in D |- A(x)")
    bad = rule_step(seq("G, y in D |- A(y)"), RuleId.SUBST, [premise],
                    params={"var": "x", "term": Var("y")})
    assert not bad.ok


def test_weaken_l():
    verdict = rule_step(seq("z in D |- z = z"), RuleId.WEAKEN_L,
                        [seq("|- z = z")])
    assert verdict.ok


def test_cut_splices_contexts():
    left = seq("z in D |- z = t1 \\/ z = t2")
    right = seq("G, z = t1 \\/ z = t2 |- A(z)")
    verdict = rule_step(seq("G, z in D |- A(z)"), RuleId.CUT, [left, right])
    assert verdict.ok, verdict.reason
    assert not rule_step(seq("G |- A(z)"), RuleId.CUT, [left, right]).ok


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
    ("step 1 weaken_l positions=a :: A(x) |- A(x)", 1, 27,
     "parameter positions: expected an integer, found 'a'"),
    ("-- header\npredicate A/x", 2, 13,
     "predicate A: expected an integer, found 'x'"),
    ("domain D = <t1, 1>", 1, 1, "domain D: expected '= { ... }'"),
    ("-- header\n\n  step 1 identity :: A( |- ", 3, 25,
     "expected a term, found '|-'"),
    ("step 1 identity :: A(<t, 3/2>) |- A(<t, 3/2>)", 1, 22,
     "outcome probability must be in (0, 1], got 3/2"),
])
def test_script_line_error_positions(text, line, column, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_script(text)
    assert (err.value.line, err.value.column, err.value.message) == \
        (line, column, message)


def test_subst_never_accepted_in_reverse():
    # substitution is one-directional: un-substituting a closed term back
    # into a variable is not an instance of the rule
    instance = seq("G, <t1, 1/2> in D |- A(<t1, 1/2>)")
    general = seq("G, z in D |- A(z)")
    forward = rule_step(instance, RuleId.SUBST, [general],
                        params={"var": "z", "term": parse_term("<t1, 1/2>")})
    assert forward.ok
    reverse = rule_step(general, RuleId.SUBST, [instance])
    assert not reverse.ok
    reverse_explicit = rule_step(general, RuleId.SUBST, [instance],
                                 params={"var": "z", "term": Var("z")})
    assert not reverse_explicit.ok


def test_render_covers_derivations():
    import rfod
    d = _reflection_derivation()
    text = rfod.render(d)
    assert text.splitlines()[0].startswith("step 1 identity")
