#! /usr/bin/env python3
"""The named results, replayed mechanically.

The predicative formula (forall x in D . A(x)) describes a state; the
conjunction A(t1) & ... & A(tm) is its propositional, mixed-state reading.
The two are interderivable exactly when the domain is focused, i.e. when
membership entails the disjunction of equalities with the outcomes.
"""
from fractions import Fraction

from rfod import (
    Atom, ContextVar, DomainTable, Outcome, RuleId, TheoryConfig, check,
    parse_sequent, render,
)
from rfod.syntax import Neq, Var
from rfod.theorems import (
    Judgement, build_uncertainty, check_reversibility,
    derive_collapse_and_repeat, derive_distributivity, derive_lemma1,
    derive_prop1, derive_prop2, derive_reflection, derive_remeasure,
    generalize, schematic_domain,
)

D = schematic_domain("D", 2)
TABLE = DomainTable([D])
FOCUSED = TheoryConfig(focused_domains=frozenset({"D"}))
BASIC = TheoryConfig()

# ============================================================================
# Reflection: instantiating the universally described state.

reflection = derive_reflection(D)
print(render(reflection.conclusion))
assert check(reflection, BASIC, TABLE).accepted

# ============================================================================
# From the mixed-state conjunction to the universal — needs focus.

lemma = derive_lemma1((ContextVar("G"),), "A", D, cfg=FOCUSED)
print(render(lemma.conclusion))
assert check(lemma, FOCUSED, TABLE).accepted
assert not check(lemma, BASIC, TABLE).accepted  # focus axiom unavailable

prop1 = derive_prop1("A", D, cfg=FOCUSED)
assert check(prop1, FOCUSED, TABLE).accepted

# ============================================================================
# Conversely, schematic derivability of that entailment focuses the
# domain.  Grafting the instance at inequality closes the loop.

hypothesis = derive_prop1(("w", Neq(Var("z"), Var("w"))), D, cfg=FOCUSED)
prop2 = derive_prop2(D, hypothesis=hypothesis)
print(render(prop2.conclusion))
report = check(prop2, FOCUSED, TABLE)
assert report.accepted and not report.assumptions

# ============================================================================
# Generalization: from experienced judgements to a predicative assertion.
# The constructed domain is focused by construction.

half = Fraction(1, 2)
batch = [Judgement((ContextVar("G"),), (Atom("A", (t,)),), (t,))
         for t in (Outcome("t1", half), Outcome("t2", half))]
sequent, derivation = generalize(batch, table=DomainTable())
print(render(sequent))

# Substitution is reversible exactly on focused domains.

assert check_reversibility(D, FOCUSED).reversible
verdict = check_reversibility(D, BASIC)
assert not verdict.reversible and verdict.missing_axiom == "AX_FOCUS(D)"

# ============================================================================
# Selective measurement: collapse into a sharp state, then repeat it.

collapse, repeat = derive_collapse_and_repeat(D, 1)
print(render(collapse.conclusion))
print(render(repeat.conclusion))
assert check(collapse, BASIC, TABLE).accepted
assert check(repeat, BASIC, TABLE).accepted
again = derive_remeasure(D, 1)
assert check(again, BASIC, TABLE).accepted

# ============================================================================
# Uncertainty: the labelled falsum carries the incompatible observable.

from rfod.syntax import Domain
uniform_y = Domain("DUY", (Outcome("up_y", half), Outcome("down_y", half)),
                   kind="uniform")
base = parse_sequent("G |- A^f(#up_z)")
print(render(build_uncertainty(base, uniform_y)))

# ============================================================================
# Distributivity of * over the universal needs classical right contexts.

CLASSICAL = TheoryConfig(right_contexts_in_forall=True)
da, db = schematic_domain("DZ", 2), schematic_domain("DZ'", 2)
nested, split = derive_distributivity(da, db, cfg=CLASSICAL)
t2 = DomainTable([da, db])
assert check(nested, CLASSICAL, t2).accepted
assert check(split, CLASSICAL, t2).accepted
blocked = check(split, BASIC, t2)
assert blocked.first_failure.rule is RuleId.EQ_FORALL_R

print("ok")
