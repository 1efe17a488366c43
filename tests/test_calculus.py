"""Equation engine, rules, axioms, dualize, checker and scripts."""
import dataclasses
from fractions import Fraction

import pytest

from rfod.errors import FragmentError, RuleError
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
