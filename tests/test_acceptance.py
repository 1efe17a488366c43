"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines; every
tolerance is pinned here, not configured elsewhere.
"""
import contextlib
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rfod.calculus import (
    BACKWARD, FORWARD, RuleId, TheoryConfig, check, dualize, equation_step,
    validate_step,
)
from rfod.cli import main as cli_main
from rfod.errors import DomainError
from rfod.quantum import (
    IdentificationMode, QState, basis_y, basis_z, density_of, emit_assertion,
    measure, named_state, purity, schmidt,
)
from rfod.syntax import (
    Bot, ContextVar, Correlated, Domain, DomainTable, Forall, Member,
    Outcome, Sequent, Sharp, Var, alpha_eq, parse_sequent, render,
)
from rfod.theorems import (
    check_reversibility, derive_collapse_and_repeat, derive_distributivity,
    derive_lemma1, derive_prop1, derive_prop2, derive_reflection,
    derive_remeasure, schematic_domain,
)

from gen import (
    make_rng, random_domain, random_dual_fragment_sequent, random_formula,
    random_probability_list, random_sequent,
)

GOLDEN = Path(__file__).parent / "golden" / "reflection.script"


@contextlib.contextmanager
def criterion(number, label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} {label}: PASS ({elapsed:.2f}s)")


def test_criterion_1_reflection_golden(tmp_path, capsys):
    with criterion(1, "reflection axiom, golden script"):
        started = time.monotonic()
        out = tmp_path / "reflection.script"
        assert cli_main(["derive", "reflection", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == GOLDEN.read_bytes()
        rng = make_rng(1)
        for _ in range(5):
            dn = "D" + str(rng.randrange(100))
            pn = rng.choice(("A", "B", "Q'"))
            d = schematic_domain(dn, rng.choice((1, 2, 3)))
            derivation = derive_reflection(d, pn)
            report = check(derivation, TheoryConfig(), DomainTable([d]))
            assert report.accepted
            want = (f"forall x in {dn} . {pn}(x), z in {dn} |- {pn}(z)")
            assert render(derivation.conclusion) == want
        assert time.monotonic() - started < 1.0


def test_criterion_2_lemma1_prop1_focus_biconditional():
    with criterion(2, "lemma/proposition 1 gated by the focus axiom"):
        started = time.monotonic()
        for m in (1, 2, 3, 4):
            d = schematic_domain("D", m)
            table = DomainTable([d])
            enabled = TheoryConfig(focused_domains=frozenset({"D"}))
            disabled = TheoryConfig()
            for derivation in (derive_lemma1(None, "A", d, cfg=enabled),
                               derive_prop1("A", d, cfg=enabled)):
                assert check(derivation, enabled, table).accepted
                rejected = check(derivation, disabled, table)
                assert not rejected.accepted
                assert rejected.first_failure.rule is RuleId.AX_FOCUS
        assert time.monotonic() - started < 5.0


def test_criterion_3_prop2_replay():
    with criterion(3, "focusing-converse chain with the duality step"):
        for m in (2, 3):
            d = schematic_domain("D", m)
            derivation = derive_prop2(d)
            report = check(derivation, TheoryConfig(), DomainTable([d]))
            assert report.accepted, report.summary()
            dual_nodes = [n for n in derivation.walk()
                          if n.rule is RuleId.DUALIZE]
            assert len(dual_nodes) == 1
            node = dual_nodes[0]
            conj = " & ".join(f"z != <t{i}, 1/{m}>" for i in range(1, m + 1))
            disj = " \\/ ".join(f"z = <t{i}, 1/{m}>" for i in range(1, m + 1))
            assert alpha_eq(node.premises[0].conclusion,
                            parse_sequent(f"{conj}, y in D |- z != y"))
            assert alpha_eq(node.conclusion,
                            parse_sequent(f"y in D, z = y |- {disj}"))


def test_criterion_4_reversibility_iff_focused():
    with criterion(4, "substitution reversible exactly on focused domains"):
        rng = make_rng(4)
        for k in range(100):
            domain = random_domain(rng, name=f"D{k}")
            focused = rng.random() < 0.5
            singleton_axioms = rng.random() < 0.6
            cfg = TheoryConfig(
                singleton_axioms=singleton_axioms,
                focused_domains=frozenset({domain.name} if focused else ()))
            verdict = check_reversibility(domain, cfg)
            expected = cfg.is_focused(domain.name, DomainTable([domain]))
            assert verdict.reversible == expected
            if verdict.reversible:
                report = check(verdict.witness, cfg, DomainTable([domain]))
                assert report.accepted, report.summary()
            else:
                assert verdict.missing_axiom == f"AX_FOCUS({domain.name})"


def test_criterion_5_collapse_and_repeatability():
    with criterion(5, "collapse and repeatability, singleton-axiom gated"):
        d = schematic_domain("D", 2)
        table = DomainTable([d])
        on = TheoryConfig()
        off = TheoryConfig(singleton_axioms=False)
        for i in (1, 2):
            collapse, repeat = derive_collapse_and_repeat(d, i)
            label = d.labels[i - 1]
            assert render(collapse.conclusion) == \
                f"forall x in D . A(x) |- A^f(#{label})"
            assert render(repeat.conclusion) == \
                f"forall x in D . A(x) |- forall x in {{{label}}} . A^f(x)"
            assert check(collapse, on, table).accepted
            assert check(repeat, on, table).accepted
            assert not check(collapse, off, table).accepted
            assert not check(repeat, off, table).accepted
            again = derive_remeasure(d, i)
            assert render(again.conclusion) == \
                f"forall x in {{{label}}} . A^f(x) |- A^f(#{label})"
            assert check(again, on, table).accepted


def test_criterion_6_quantum_numerics():
    with criterion(6, "Born probabilities and purity"):
        plus = named_state("plus")
        dz = measure(plus, basis_z())
        assert all(abs(float(p) - 0.5) <= 1e-9 for p in dz.probs)
        mixed = purity(density_of(dz, basis_z()))
        assert abs(mixed - 0.5) <= 1e-9
        singleton = measure(named_state("zero"), basis_z())
        assert abs(purity(density_of(singleton, basis_z())) - 1.0) <= 1e-9
        after_collapse = measure(named_state("up_z"), basis_y())
        assert after_collapse.labels == ("up_y", "down_y")
        assert all(abs(float(p) - 0.5) <= 1e-9 for p in after_collapse.probs)


def test_criterion_7_schmidt_and_assertion_forms():
    with criterion(7, "Schmidt separation and the emitted assertions"):
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        bell = named_state("bell")
        data = schmidt(bell)
        assert abs(data.coefficients[0] - inv_sqrt2) <= 1e-7
        assert abs(data.coefficients[1] - inv_sqrt2) <= 1e-7
        assert np.max(np.abs(data.reconstruction() - bell.amplitudes)) <= 1e-7
        product = named_state("product_0plus")
        assert schmidt(product).coefficients[1] <= 1e-7
        separable = emit_assertion(product, bipartite=True,
                                   table=DomainTable())
        assert render(separable) == "G, z in DZ, y in DZ' |- A(z), A'(y)"
        table = DomainTable()
        correlated = emit_assertion(bell, bipartite=True, table=table)
        assert render(correlated) == "G, z in DS |- A(z) ,_S A'(z)"
        assert table.resolve("DS").probs == (Fraction(1, 2), Fraction(1, 2))
        composed = equation_step(correlated, RuleId.EQ_BOWTIE_R, FORWARD)
        assert render(composed[0]) == "G |- bowtie x in DS (A(x); A'(x))"
        back = equation_step(composed[0], RuleId.EQ_BOWTIE_R, BACKWARD,
                             {"var": "z"})
        assert back == [correlated]


def test_criterion_8_distributivity_modes():
    with criterion(8, "star/universal distributivity needs classical mode"):
        da = schematic_domain("DZ", 2)
        db = schematic_domain("DZ'", 2)
        table = DomainTable([da, db])
        classical = TheoryConfig(right_contexts_in_forall=True)
        nested, split = derive_distributivity(da, db, cfg=classical)
        assert check(nested, classical, table).accepted
        assert check(split, classical, table).accepted
        basic = TheoryConfig()
        rejected = check(split, basic, table)
        assert not rejected.accepted
        assert rejected.first_failure.rule is RuleId.EQ_FORALL_R
        assert "right context" in rejected.first_failure.reason


# ---------------------------------------------------------------------------
# criterion 9: bulk property suites

def _forall_case(rng):
    body = random_formula(rng, 2)
    ant = [random_formula(rng, 1) for _ in range(rng.randrange(2))]
    if rng.random() < 0.5:
        ant.insert(0, ContextVar("G"))
    return (RuleId.EQ_FORALL_R,
            Sequent(tuple(ant), (Forall("x", "D", body),)),
            {"slot": 0}, {"slot": 0})


def _and_case(rng):
    from rfod.syntax import And
    ant = [random_formula(rng, 1) for _ in range(rng.randrange(3))]
    s = Sequent(tuple(ant), (And(random_formula(rng, 2),
                                 random_formula(rng, 2)),))
    return RuleId.EQ_AND_R, s, None, None


def _star_case(rng):
    from rfod.syntax import Star
    extra = [random_formula(rng, 1) for _ in range(rng.randrange(3))]
    k = rng.randrange(len(extra) + 1)
    succ = extra[:k] + [Star(random_formula(rng, 1),
                             random_formula(rng, 1))] + extra[k:]
    s = Sequent((random_formula(rng, 1),), tuple(succ))
    return RuleId.EQ_STAR_R, s, {"slot": k}, {"slot": k}


def _bot_case(rng):
    label = rng.choice((None, "Y", "UZ"))
    succ = [random_formula(rng, 1)
            for _ in range(1 + rng.randrange(2))] + [Bot(label)]
    s = Sequent((random_formula(rng, 1),), tuple(succ))
    return RuleId.EQ_BOT_R, s, None, {"label": label}


def _or_case(rng):
    from rfod.syntax import Or
    items = [random_formula(rng, 1) for _ in range(rng.randrange(3))]
    j = rng.randrange(len(items) + 1)
    items.insert(j, Or(random_formula(rng, 1), random_formula(rng, 1)))
    s = Sequent(tuple(items), (random_formula(rng, 1),))
    return RuleId.EQ_OR_L, s, {"index": j}, {"index": j}


def _exists_case(rng):
    body = random_formula(rng, 2)
    items = [Member(Var("w"), "E"), random_formula(rng, 1)]
    j = rng.randrange(len(items) + 1)
    from rfod.syntax import Exists
    items.insert(j, Exists("x", "D", body))
    s = Sequent(tuple(items), (random_formula(rng, 1),))
    return (RuleId.EQ_EXISTS_L, s, {"index": j},
            {"member": j + 1, "body": j, "slot": j})


def _bowtie_case(rng):
    from rfod.syntax import Bowtie
    s = Sequent((random_formula(rng, 1),),
                (Bowtie("x", "DS", random_formula(rng, 2),
                        random_formula(rng, 2)),))
    return RuleId.EQ_BOWTIE_R, s, None, None


def _equality_round_trip(rng):
    from gen import random_term
    s = random_sequent(rng, max_items=2)
    t = random_term(rng)
    enriched = equation_step(s, RuleId.EQ_EQUALITY, BACKWARD, {"term": t})[0]
    back = equation_step(enriched, RuleId.EQ_EQUALITY, FORWARD)
    assert alpha_eq(back[0], s), (render(s), render(enriched))


_CASES = (_forall_case, _and_case, _star_case, _bot_case, _or_case,
          _exists_case, _bowtie_case)


def test_criterion_9_property_suites():
    with criterion(9, "bulk equation/dualize/parser/domain properties"):
        started = time.monotonic()
        rng = make_rng(9)
        classical = TheoryConfig(right_contexts_in_forall=True)

        inversions = 0
        while inversions < 1000:
            maker = _CASES[inversions % len(_CASES)]
            rule, s, back_params, fwd_params = maker(rng)
            plain = equation_step(s, rule, BACKWARD, back_params,
                                  cfg=classical)
            source = plain if len(plain) > 1 else plain[0]
            composed = equation_step(source, rule, FORWARD, fwd_params,
                                     cfg=classical)
            assert len(composed) == 1 and alpha_eq(composed[0], s), \
                (rule, render(s))
            # the checker recomputes the same equation in both directions
            assert validate_step(s, rule, FORWARD, plain, fwd_params,
                                 cfg=classical) is None
            for piece, pick in zip(plain, ("left", "right")):
                params = dict(back_params or {})
                if len(plain) == 2:
                    params["pick"] = pick
                assert validate_step(piece, rule, BACKWARD, [s], params,
                                     cfg=classical) is None
            inversions += 1
            if inversions % len(_CASES) == 0:
                _equality_round_trip(rng)

        for _ in range(400):
            s = random_dual_fragment_sequent(rng)
            assert dualize(dualize(s)) == s

        roundtrips = 0
        while roundtrips < 1000:
            s = random_sequent(rng)
            assert alpha_eq(parse_sequent(render(s)), s)
            roundtrips += 1

        for _ in range(200):
            good = random_probability_list(rng, valid=True)
            Domain("D", tuple(Outcome(f"s{i}", p)
                              for i, p in enumerate(good)))
            bad = random_probability_list(rng, valid=False)
            with pytest.raises(DomainError):
                Domain("D", tuple(Outcome(f"s{i}", p)
                                  for i, p in enumerate(bad)))

        assert time.monotonic() - started < 60.0
