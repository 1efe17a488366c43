"""Born and Schmidt weights become the same rationals as Fraction's
best approximation gives, and the domains built from them are the ones
that reference predicts.

The reference is written here with `Fraction.limit_denominator`: each
weight's best approximation with denominator at most
RATIONAL_DENOMINATOR_LIMIT, raised to 1/RATIONAL_DENOMINATOR_LIMIT, then
divided by their sum.
"""
import math
from fractions import Fraction

import pytest

from gen import make_rng
from rfod.errors import DomainError
from rfod.quantum import (
    RATIONAL_DENOMINATOR_LIMIT as LIMIT, TOLERANCES, QState, _rationalize,
    basis_x, basis_y, basis_z, born_weights, emit_assertion, measure, schmidt,
)
from rfod.syntax import DomainTable, Outcome, Sharp
from rfod.syntax.ast import Domain


def reference(weights):
    floor = Fraction(1, LIMIT)
    fracs = [max(Fraction(w).limit_denominator(LIMIT), floor)
             for w in weights]
    total = sum(fracs, Fraction(0))
    return [f / total for f in fracs]


def _exact(fracs):
    return [(type(f), f.numerator, f.denominator) for f in fracs]


def _ulps(x, n=3):
    """x and its n nearest floats on each side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _seeded_weights():
    rng = make_rng(41)
    out = [rng.random() for _ in range(300)]
    out += [rng.random() ** 8 for _ in range(100)]         # toward 0
    out += [1 - rng.random() ** 8 for _ in range(100)]     # toward 1
    out += [rng.random() * 1e-5 for _ in range(50)]        # about the floor
    return out


_SPECIAL = (
    # denominators already at most 10^6
    [0.5, 0.25, 0.75, 0.125, 1.0, 3 / 8, 2 ** -19, 1 - 2 ** -19, 2]
    # below and at the 1/10^6 floor
    + [1e-9, 1e-7, 4.9e-7, 5e-7, 5.1e-7, 1e-6, 1.5e-6, 5e-324, 2.2e-308]
    # within an ulp of 1 and of 1/k
    + _ulps(1.0)
    + [u for k in (2, 3, 5, 6, 7, 9, 10, 11, 13, 997, 1000, 10**6 - 1, 10**6,
                   10**6 + 1, 2 * 10**6)
       for u in _ulps(1 / k, 2)]
)


@pytest.mark.parametrize("w", _SPECIAL, ids=repr)
def test_one_weight_matches_limit_denominator(w):
    # a lone weight renormalises to 1, so pair it with its complement too
    assert _exact(_rationalize([w])) == _exact(reference([w]))
    assert _exact(_rationalize([w, 1 - w])) == _exact(reference([w, 1 - w]))
    assert _exact(_rationalize([w, w, 0.5])) == _exact(reference([w, w, 0.5]))


def test_seeded_weights_match_limit_denominator():
    rng = make_rng(42)
    weights = _seeded_weights() + list(_SPECIAL)
    for w in weights:
        lone = _rationalize([w])
        assert _exact(lone) == _exact(reference([w])), w
    for _ in range(400):
        group = rng.sample(weights, rng.choice((2, 3, 4)))
        assert _exact(_rationalize(group)) == _exact(reference(group)), group


def test_no_weight_is_refused():
    with pytest.raises(DomainError, match="no outcome survives"):
        _rationalize([])


def _random_qubit(rng):
    a = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    b = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    n = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return (a / n, b / n)


def _random_pair(rng):
    amps = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
    n = math.sqrt(sum(abs(a) ** 2 for a in amps))
    return tuple(a / n for a in amps)


def _elements(domain):
    return [(type(e).__name__, e.state, getattr(e, "prob", None))
            for e in domain.elements]


def _expected_measure(psi, basis):
    """(name, elements, focused, kind) from the reference weights."""
    kept = [(label, w) for label, w in zip(basis.labels,
                                           born_weights(psi, basis))
            if w > TOLERANCES["outcome_prune"]]
    probs = reference([w for _, w in kept])
    elements = [("Sharp", label, None) if p == 1 else ("Outcome", label, p)
                for (label, _), p in zip(kept, probs)]
    kind = ("singleton" if len(probs) == 1
            else "uniform" if len(set(probs)) == 1 else "measured")
    return "D" + basis.name, elements, kind == "singleton", kind


def _seen(domain):
    return domain.name, _elements(domain), domain.focused, domain.kind


def test_measure_and_emit_assertion_match_the_reference():
    rng = make_rng(43)
    bases = (basis_z(), basis_x(), basis_y())
    for k in range(300):
        basis = bases[k % 3]
        psi = QState(_random_qubit(rng) if k % 10 else
                     basis.vectors[k % 2])  # now and then a basis vector
        want = _expected_measure(psi, basis)
        assert _seen(measure(psi, basis)) == want
        table = DomainTable()
        emit_assertion(psi, basis, table=table)
        assert [_seen(d) for d in table.domains()] == [want]
    for k in range(300):
        if k % 2:
            u, v = _random_qubit(rng), _random_qubit(rng)
            psi = QState([a * b for a in u for b in v])
        else:
            psi = QState(_random_pair(rng))
        local = bases[k % 3] if k % 4 == 1 else None
        table = DomainTable()
        emit_assertion(psi, local, bipartite=True, table=table)
        data = schmidt(psi)
        if data.entangled():
            probs = reference([c ** 2 for c in data.coefficients])
            kind = "uniform" if probs[0] == probs[1] else "measured"
            want = [("DS", [("Outcome", f"s{i + 1}", p)
                            for i, p in enumerate(probs)], True, kind)]
        else:
            base = local or basis_z()
            left = _expected_measure(QState(data.left[0]), base)
            right = _expected_measure(QState(data.right[0]), base)
            want = [left, (right[0] + "'",) + right[1:]]
        assert [_seen(d) for d in table.domains()] == want, psi.amplitudes


@pytest.mark.parametrize("build, message", [
    (lambda: Outcome("s", 0),
     "outcome probability must be in (0, 1], got 0"),
    (lambda: Outcome("s", Fraction(-1, 3)),
     "outcome probability must be in (0, 1], got -1/3"),
    (lambda: Outcome("s", Fraction(1000001, 1000000)),
     "outcome probability must be in (0, 1], got 1000001/1000000"),
    (lambda: Outcome("s", 2),
     "outcome probability must be in (0, 1], got 2"),
    (lambda: Domain("D", (Outcome("a", Fraction(1, 2)),
                          Outcome("b", Fraction(1, 3)))),
     "domain D: probabilities sum to 5/6, not 1"),
    (lambda: Domain("D", (Sharp("a"), Outcome("b", Fraction(1, 4)))),
     "domain D: probabilities sum to 5/4, not 1"),
    (lambda: Domain("D", tuple(Outcome(f"s{i}", Fraction(1, 7))
                               for i in range(6))),
     "domain D: probabilities sum to 6/7, not 1"),
    (lambda: Domain("D", (Outcome("a", Fraction(1, 4)),
                          Outcome("b", Fraction(3, 4))), kind="uniform"),
     "domain D: uniform kind requires equal probabilities"),
    (lambda: Domain("D", (Outcome("a", Fraction(1, 2)),
                          Outcome("b", Fraction(1, 2))), kind="singleton"),
     "domain D: singleton must hold one element of probability 1"),
])
def test_outcome_and_domain_error_text(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


def test_outcome_and_domain_accept_what_they_did():
    assert Outcome("s", 1).prob == 1 and type(Outcome("s", 1).prob) is Fraction
    assert Outcome("s", 0.25).prob == Fraction(1, 4)
    assert Outcome("s", "3/4").prob == Fraction(3, 4)
    d = Domain("D", tuple(Outcome(f"s{i}", Fraction(1, 1024))
                          for i in range(1024)), kind="uniform")
    assert d.probs[0] == Fraction(1, 1024)
    odd = [Fraction(1, 3), Fraction(1, 6), Fraction(1, 4), Fraction(1, 4)]
    Domain("D", tuple(Outcome(f"s{i}", p) for i, p in enumerate(odd)))
    assert Domain("D", (Sharp("a"),), kind="singleton").kind == "singleton"
