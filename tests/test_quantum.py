"""Hilbert-space backend: Born rule, density operators, phases, Schmidt."""
import math
from fractions import Fraction

import numpy as np
import pytest

from rfod.errors import DomainError
from rfod.quantum import (
    Basis, DensityOp, IdentificationMode, QState, TOLERANCES, basis_from_json,
    basis_x, basis_y, basis_z, born_weights, density_of, emit_assertion,
    focusing_status, measure, named_state, purity, schmidt,
    state_from_json, state_to_json,
)
from rfod.syntax import Correlated, DomainTable, Outcome, render
from rfod.calculus import RuleId, equation_step


def born_oracle(psi, basis):
    """Independent Born weights: explicit inner-product sums."""
    out = []
    for vector in basis.vectors:
        amp = sum(complex(b).conjugate() * complex(a)
                  for b, a in zip(vector, psi.amplitudes))
        out.append(abs(amp) ** 2)
    return out


def reduced_eigvals_oracle(psi):
    """Schmidt coefficients via the reduced density matrix's eigenvalues,
    independent of the SVD route."""
    amplitudes = np.asarray(psi.amplitudes)
    rho = np.outer(amplitudes, amplitudes.conj())
    reduced = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            reduced[i, j] = rho[2 * i, 2 * j] + rho[2 * i + 1, 2 * j + 1]
    eig = sorted(np.linalg.eigvalsh(reduced), reverse=True)
    return [math.sqrt(max(v, 0.0)) for v in eig]


def test_measure_plus_in_z():
    domain = measure(named_state("plus"), basis_z())
    assert domain.name == "DZ"
    assert domain.labels == ("s0", "s1")
    assert domain.probs == (Fraction(1, 2), Fraction(1, 2))
    oracle = born_oracle(named_state("plus"), basis_z())
    for p, w in zip(domain.probs, oracle):
        assert abs(float(p) - w) < 1e-9


def test_measure_basis_state_is_singleton():
    domain = measure(named_state("zero"), basis_z())
    assert domain.kind == "singleton"
    assert domain.labels == ("s0",)
    assert domain.probs == (Fraction(1),)


def test_measure_spin_y_after_z_collapse():
    domain = measure(named_state("up_z"), basis_y())
    assert domain.labels == ("up_y", "down_y")
    assert domain.probs == (Fraction(1, 2), Fraction(1, 2))
    assert domain.kind == "uniform"
    oracle = born_oracle(named_state("up_z"), basis_y())
    assert all(abs(w - 0.5) < 1e-9 for w in oracle)


def test_measure_dimension_mismatch_and_normalization():
    with pytest.raises(DomainError):
        measure(named_state("bell"), basis_z())
    with pytest.raises(DomainError):
        QState([1, 1])


def test_born_normalization_randomized():
    rng = np.random.default_rng(5)
    for _ in range(50):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = QState(raw / np.linalg.norm(raw))
        # random orthonormal basis from QR
        q, _ = np.linalg.qr(rng.normal(size=(2, 2))
                            + 1j * rng.normal(size=(2, 2)))
        basis = Basis("R", (q[:, 0], q[:, 1]), ("r0", "r1"))
        domain = measure(psi, basis)
        total = sum(domain.probs, Fraction(0))
        assert abs(float(total) - 1.0) <= 1e-9
        assert all(0 < float(p) <= 1 for p in domain.probs)


def test_density_of_uniform_domain():
    domain = measure(named_state("plus"), basis_z())
    rho = density_of(domain, basis_z())
    assert np.allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-9)


def test_density_of_singleton_is_projector():
    domain = measure(named_state("zero"), basis_z())
    rho = density_of(domain, basis_z())
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-9)
    assert abs(purity(rho) - 1.0) <= 1e-9


def test_density_of_skewed_probabilities():
    domain = measure(QState([0.5, math.sqrt(3) / 2]), basis_z())
    rho = density_of(domain, basis_z())
    assert np.allclose(rho.matrix, np.diag([0.25, 0.75]), atol=1e-6)
    assert abs(purity(rho) - 0.625) <= 1e-6


def test_purity_values():
    assert abs(purity(DensityOp(np.diag([1.0, 0.0]))) - 1.0) <= 1e-9
    assert abs(purity(DensityOp(np.diag([0.5, 0.5]))) - 0.5) <= 1e-9
    assert abs(purity(DensityOp(np.diag([0.25, 0.75]))) - 0.625) <= 1e-9


def test_density_op_invariants():
    with pytest.raises(DomainError):
        DensityOp(np.array([[0.5, 0.5j], [0.5j, 0.5]]))  # not Hermitian
    with pytest.raises(DomainError):
        DensityOp(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(DomainError):
        DensityOp(np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue


def test_focusing_status():
    plus = named_state("plus")
    assert focusing_status(plus, basis_z(), IdentificationMode.DISREGARD_PHASES)
    assert not focusing_status(plus, basis_z(), IdentificationMode.STRICT)
    assert focusing_status(named_state("zero"), basis_z(),
                           IdentificationMode.STRICT)


def test_schmidt_bell_state():
    data = schmidt(named_state("bell"))
    inv_sqrt2 = 1 / math.sqrt(2)
    assert abs(data.coefficients[0] - inv_sqrt2) <= 1e-7
    assert abs(data.coefficients[1] - inv_sqrt2) <= 1e-7
    err = np.max(np.abs(data.reconstruction()
                        - named_state("bell").amplitudes))
    assert err <= 1e-7
    oracle = reduced_eigvals_oracle(named_state("bell"))
    assert np.allclose(data.coefficients, oracle, atol=1e-7)


def test_schmidt_product_state():
    data = schmidt(named_state("product_0plus"))
    assert abs(data.coefficients[0] - 1.0) <= 1e-7
    assert data.coefficients[1] <= 1e-7
    assert not data.entangled()
    oracle = reduced_eigvals_oracle(named_state("product_0plus"))
    assert np.allclose(data.coefficients, oracle, atol=1e-7)


def test_schmidt_skewed_entangled_state():
    psi = QState([math.sqrt(0.8), 0, 0, math.sqrt(0.2)])
    data = schmidt(psi)
    assert abs(data.coefficients[0] - 0.894427) <= 1e-6
    assert abs(data.coefficients[1] - 0.447214) <= 1e-6
    assert data.entangled()
    assert np.allclose(data.coefficients, reduced_eigvals_oracle(psi),
                       atol=1e-7)


def test_schmidt_random_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(50):
        raw = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = QState(raw / np.linalg.norm(raw))
        data = schmidt(psi)
        assert data.coefficients[0] >= data.coefficients[1] >= 0
        assert abs(sum(c * c for c in data.coefficients) - 1.0) <= 1e-9
        assert np.max(np.abs(data.reconstruction() - psi.amplitudes)) <= 1e-7
        assert np.allclose(data.coefficients, reduced_eigvals_oracle(psi),
                           atol=1e-7)


def _random_unit(rng, dim):
    raw = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return raw / np.linalg.norm(raw)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pure_python_path_matches_numpy(seed):
    """Born weights and the closed-form Schmidt decomposition against
    numpy's vdot and SVD on seeded qubits (Z, X, Y) and pairs (half of
    them products)."""
    rng = np.random.default_rng(seed)
    bases = (basis_z(), basis_x(), basis_y())
    for k in range(300):
        raw = _random_unit(rng, 2)
        basis = bases[k % 3]
        expected = [abs(np.vdot(np.asarray(v), raw)) ** 2
                    for v in basis.vectors]
        weights = born_weights(QState(raw), basis)
        assert max(abs(w - e) for w, e in zip(weights, expected)) <= 1e-12
    for k in range(300):
        if k % 2:
            raw = np.kron(_random_unit(rng, 2), _random_unit(rng, 2))
        else:
            raw = _random_unit(rng, 4)
        data = schmidt(QState(raw))
        s = np.linalg.svd(raw.reshape(2, 2), compute_uv=False)
        assert max(abs(data.coefficients - s)) <= 1e-12
        assert data.entangled() == (s[1] > TOLERANCES["entangled"]) \
            == (k % 2 == 0)
        assert np.max(np.abs(data.reconstruction() - raw)) <= 1e-9


def test_schmidt_of_nearly_degenerate_and_product_states():
    """Equal and nearly equal coefficients, where the eigenvector of
    M M^dagger is ill-conditioned, and exact products, where a2 = 0."""
    for name in ("bell", "phi_minus", "psi_plus", "psi_minus",
                 "product_00", "product_0plus"):
        psi = named_state(name)
        data = schmidt(psi)
        assert data.coefficients[0] >= data.coefficients[1]
        assert np.max(np.abs(data.reconstruction()
                             - np.asarray(psi.amplitudes))) <= 1e-12
    for eps in (1e-6, 1e-9, 1e-12, 1e-15):
        psi = QState(np.array([math.sqrt(0.5 + eps), 1j * eps, 0,
                               math.sqrt(0.5 - eps - eps * eps)]))
        data = schmidt(psi)
        assert np.max(np.abs(data.reconstruction()
                             - np.asarray(psi.amplitudes))) <= 1e-12
        s = np.linalg.svd(np.reshape(psi.amplitudes, (2, 2)),
                          compute_uv=False)
        assert max(abs(data.coefficients - s)) <= 1e-12


def test_emit_assertion_single_system():
    table = DomainTable()
    s = emit_assertion(named_state("plus"), basis_z(), table=table)
    assert render(s) == "G, z in DZ |- A(z)"
    assert table.resolve("DZ").probs == (Fraction(1, 2), Fraction(1, 2))


def test_emit_assertion_separable():
    table = DomainTable()
    s = emit_assertion(named_state("product_0plus"), bipartite=True,
                       table=table)
    assert render(s) == "G, z in DZ, y in DZ' |- A(z), A'(y)"
    assert table.resolve("DZ").kind == "singleton"
    assert table.resolve("DZ'").probs == (Fraction(1, 2), Fraction(1, 2))


def test_emit_assertion_entangled():
    table = DomainTable()
    s = emit_assertion(named_state("bell"), bipartite=True, table=table)
    assert render(s) == "G, z in DS |- A(z) ,_S A'(z)"
    assert isinstance(s.succedent[0], Correlated)
    ds = table.resolve("DS")
    assert ds.labels == ("s1", "s2")
    assert ds.probs == (Fraction(1, 2), Fraction(1, 2))
    assert ds.focused


def test_emit_assertion_threshold_boundary():
    eps = 1e-5  # above the entanglement threshold
    psi = QState([math.sqrt(1 - eps * eps), 0, 0, eps])
    s = emit_assertion(psi, bipartite=True, table=DomainTable())
    assert isinstance(s.succedent[0], Correlated)
    nearly = QState([1.0, 0, 0, 0])
    s2 = emit_assertion(nearly, bipartite=True, table=DomainTable())
    assert not isinstance(s2.succedent[0], Correlated)


def test_emit_assertion_bowtie_round_trip():
    table = DomainTable()
    s = emit_assertion(named_state("bell"), bipartite=True, table=table)
    composed = equation_step(s, RuleId.EQ_BOWTIE_R, "forward")
    assert render(composed[0]) == "G |- bowtie x in DS (A(x); A'(x))"
    back = equation_step(composed[0], RuleId.EQ_BOWTIE_R, "backward",
                         {"var": "z"})
    assert back == [s]


def test_pure_mixed_witness():
    for name, basis in (("plus", basis_z()), ("i_plus", basis_x())):
        psi = named_state(name)
        domain = measure(psi, basis)
        assert len(domain.elements) >= 2
        assert purity(density_of(domain, basis)) < 1 - 1e-6
    singleton = measure(named_state("plus"), basis_x())
    assert singleton.kind == "singleton"
    assert abs(purity(density_of(singleton, basis_x())) - 1.0) <= 1e-9


def test_json_round_trips():
    psi = named_state("i_plus")
    doc = state_to_json(psi)
    assert doc[1] == [0.0, pytest.approx(1 / math.sqrt(2))]
    again = state_from_json(doc)
    assert again.amplitudes == psi.amplitudes
    basis = basis_from_json({"name": "W", "labels": ["a", "b"],
                             "vectors": [[1, 0], [0, [0.0, 1.0]]]})
    assert basis.labels == ("a", "b")
    assert np.allclose(basis.vectors[1], [0, 1j])


def test_basis_invariants():
    with pytest.raises(DomainError):
        Basis("B", ([1, 0], [1, 0]), ("a", "b"))
    with pytest.raises(DomainError):
        Basis("B", ([1, 0],), ("a",))
    with pytest.raises(DomainError):
        Basis("B", ([1, 0], [0, 0.5]), ("a", "b"))
    with pytest.raises(DomainError):
        Basis("B", ([1, 0], [0, math.nan]), ("a", "b"))


def test_non_finite_state_is_not_normalized():
    for amplitudes in ([math.nan, 0], [math.inf, 0]):
        with pytest.raises(DomainError, match="not normalized"):
            QState(np.array(amplitudes, dtype=complex))


def test_bridge_focusing_status_matches_reversibility():
    from rfod.calculus import TheoryConfig, check
    from rfod.theorems import check_reversibility
    cases = [
        (named_state("plus"), basis_z(), IdentificationMode.DISREGARD_PHASES),
        (named_state("plus"), basis_z(), IdentificationMode.STRICT),
        (named_state("zero"), basis_z(), IdentificationMode.STRICT),
        (named_state("i_plus"), basis_y(), IdentificationMode.STRICT),
        (named_state("i_plus"), basis_z(), IdentificationMode.STRICT),
    ]
    for psi, basis, mode in cases:
        may_focus = focusing_status(psi, basis, mode)
        domain = measure(psi, basis)
        focused = frozenset({domain.name}) if may_focus else frozenset()
        cfg = TheoryConfig(singleton_axioms=False, focused_domains=focused)
        verdict = check_reversibility(domain, cfg)
        assert verdict.reversible == may_focus
        if verdict.reversible:
            assert check(verdict.witness, cfg, DomainTable([domain])).accepted
