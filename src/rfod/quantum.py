"""Minimal Hilbert-space backend (dimensions 2 and 4).

Born-rule measurement produces random first-order domains, phase
identification decides whether a domain may be declared focused, density
operators realize the propositional (mixed-state) reading, and the Schmidt
decomposition separates product from entangled bipartite states.  The
emitted assertions land in the same sequent syntax the kernel checks.

All tolerances live in TOLERANCES; probabilities crossing into the
syntax layer are rounded to rationals and renormalized.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .syntax.ast import (
    Atom, ContextVar, Correlated, Domain, DomainTable, Member, Outcome,
    Sequent, Sharp, Var, domain_kind,
)

TOLERANCES = {
    "norm": 1e-9,            # unit-vector and trace checks
    "orthogonality": 1e-9,   # basis inner products
    "outcome_prune": 1e-9,   # Born weights below this are dropped
    "hermitian": 1e-9,       # density-operator symmetry check
    "eigen_floor": -1e-9,    # density eigenvalues must not dip below
    "entangled": 1e-7,       # a2 above this means entangled
}
RATIONAL_DENOMINATOR_LIMIT = 10**6


class IdentificationMode(enum.Enum):
    DISREGARD_PHASES = "disregard_phases"
    STRICT = "strict"


@dataclass(frozen=True, eq=False)
class QState:
    """Unit complex vector of dimension 2 or 4."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape[0] not in (2, 4):
            raise DomainError(f"state dimension must be 2 or 4, got {amp.shape[0]}")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > TOLERANCES["norm"]:
            raise DomainError(f"state is not normalized (norm {norm})")

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class Basis:
    """Named orthonormal basis with one state label per vector."""

    name: str
    vectors: tuple
    labels: tuple

    def __post_init__(self):
        vectors = tuple(np.asarray(v, dtype=complex).reshape(-1)
                        for v in self.vectors)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", tuple(self.labels))
        dim = vectors[0].shape[0]
        if len(vectors) != dim:
            raise DomainError("basis must have as many vectors as dimensions")
        if len(self.labels) != dim:
            raise DomainError("basis needs one label per vector")
        for i, v in enumerate(vectors):
            if v.shape[0] != dim:
                raise DomainError("basis vectors differ in dimension")
            if abs(np.linalg.norm(v) - 1.0) > TOLERANCES["norm"]:
                raise DomainError(f"basis vector {i} is not normalized")
            for w in vectors[i + 1:]:
                if abs(np.vdot(v, w)) > TOLERANCES["orthogonality"]:
                    raise DomainError("basis vectors are not orthogonal")

    @property
    def dim(self) -> int:
        return self.vectors[0].shape[0]

    def vector_for(self, label: str) -> np.ndarray:
        try:
            return self.vectors[self.labels.index(label)]
        except ValueError:
            raise DomainError(f"basis {self.name} has no state label {label}")


@dataclass(frozen=True, eq=False)
class DensityOp:
    """Hermitian, unit-trace, positive matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("density operator must be square")
        if np.max(np.abs(m - m.conj().T)) > TOLERANCES["hermitian"]:
            raise DomainError("density operator is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TOLERANCES["norm"]:
            raise DomainError("density operator trace is not 1")
        if np.min(np.linalg.eigvalsh(m)) < TOLERANCES["eigen_floor"]:
            raise DomainError("density operator has a negative eigenvalue")


@dataclass(frozen=True, eq=False)
class SchmidtData:
    """Descending non-negative coefficients with the two local bases."""

    coefficients: tuple
    left: tuple
    right: tuple

    def __post_init__(self):
        a = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "left",
                           tuple(np.asarray(v, dtype=complex) for v in self.left))
        object.__setattr__(self, "right",
                           tuple(np.asarray(v, dtype=complex) for v in self.right))
        if a[0] < a[1] or a[1] < -TOLERANCES["norm"]:
            raise DomainError("coefficients must be descending and non-negative")
        if abs(a[0] ** 2 + a[1] ** 2 - 1.0) > TOLERANCES["norm"]:
            raise DomainError("squared coefficients must sum to 1")

    def reconstruction(self) -> np.ndarray:
        out = np.zeros(4, dtype=complex)
        for c, u, w in zip(self.coefficients, self.left, self.right):
            out += c * np.kron(u, w)
        return out

    def entangled(self) -> bool:
        return self.coefficients[1] > TOLERANCES["entangled"]


# ---------------------------------------------------------------------------
# built-in states and bases

_SQ2 = 1.0 / math.sqrt(2.0)

NAMED_STATES = {
    "zero": [1, 0],
    "one": [0, 1],
    "up_z": [1, 0],
    "down_z": [0, 1],
    "plus": [_SQ2, _SQ2],
    "minus": [_SQ2, -_SQ2],
    "i_plus": [_SQ2, 1j * _SQ2],
    "i_minus": [_SQ2, -1j * _SQ2],
    # bipartite
    "bell": [_SQ2, 0, 0, _SQ2],
    "phi_plus": [_SQ2, 0, 0, _SQ2],
    "phi_minus": [_SQ2, 0, 0, -_SQ2],
    "psi_plus": [0, _SQ2, _SQ2, 0],
    "psi_minus": [0, _SQ2, -_SQ2, 0],
    "product_00": [1, 0, 0, 0],
    "product_0plus": [_SQ2, _SQ2, 0, 0],
}


def named_state(name: str) -> QState:
    if name not in NAMED_STATES:
        raise DomainError(f"unknown state name {name}")
    return QState(np.array(NAMED_STATES[name], dtype=complex))


def basis_z() -> Basis:
    return Basis("Z", ([1, 0], [0, 1]), ("s0", "s1"))


def basis_x() -> Basis:
    return Basis("X", ([_SQ2, _SQ2], [_SQ2, -_SQ2]), ("plus_x", "minus_x"))


def basis_y() -> Basis:
    return Basis("Y", ([_SQ2, 1j * _SQ2], [_SQ2, -1j * _SQ2]),
                 ("up_y", "down_y"))


BUILTIN_BASES = {"Z": basis_z, "X": basis_x, "Y": basis_y}


def named_basis(name: str) -> Basis:
    if name not in BUILTIN_BASES:
        raise DomainError(f"unknown basis name {name}")
    return BUILTIN_BASES[name]()


# ---------------------------------------------------------------------------
# measurement

def _rationalize(weights: Sequence[float]) -> list:
    floor = Fraction(1, RATIONAL_DENOMINATOR_LIMIT)
    fracs = [max(Fraction(w).limit_denominator(RATIONAL_DENOMINATOR_LIMIT),
                 floor)
             for w in weights]
    total = sum(fracs, Fraction(0))
    if not fracs:
        raise DomainError("no outcome survives the pruning threshold")
    return [f / total for f in fracs]


def measure(psi: QState, basis: Basis) -> Domain:
    """Born-rule domain: one outcome per basis vector with weight above the
    pruning threshold; name D<basis>, e.g. DZ."""
    if psi.dim != basis.dim:
        raise DomainError(
            f"dimension mismatch: state {psi.dim}, basis {basis.dim}")
    weights = []
    labels = []
    for label, vector in zip(basis.labels, basis.vectors):
        w = abs(np.vdot(vector, psi.amplitudes)) ** 2
        if w > TOLERANCES["outcome_prune"]:
            weights.append(w)
            labels.append(label)
    probs = _rationalize(weights)
    elements = tuple(Sharp(lab) if p == 1 else Outcome(lab, p)
                     for lab, p in zip(labels, probs))
    kind = domain_kind(probs)
    return Domain("D" + basis.name, elements,
                  focused=(kind == "singleton"), kind=kind)


def density_of(domain: Domain, basis: Basis) -> DensityOp:
    """Convex combination of projectors weighted by the outcome
    probabilities."""
    dim = basis.dim
    rho = np.zeros((dim, dim), dtype=complex)
    for element in domain.elements:
        label = element.state
        p = float(element.prob) if isinstance(element, Outcome) else 1.0
        v = basis.vector_for(label)
        rho += p * np.outer(v, v.conj())
    return DensityOp(rho)


def purity(rho: DensityOp) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def phase_equiv(x: QState, y: QState,
                mode: IdentificationMode = IdentificationMode.DISREGARD_PHASES
                ) -> bool:
    if x.dim != y.dim:
        raise DomainError("dimension mismatch")
    if mode is IdentificationMode.STRICT:
        return bool(np.max(np.abs(x.amplitudes - y.amplitudes))
                    <= TOLERANCES["norm"])
    return bool(abs(abs(np.vdot(x.amplitudes, y.amplitudes)) - 1.0)
                <= TOLERANCES["norm"])


def focusing_status(psi: QState, basis: Basis,
                    mode: IdentificationMode) -> bool:
    """Whether the measured domain may be declared focused.

    Disregarding phases the state identification is uniform and focusing
    holds; keeping phases it holds only in the trivial single-outcome case,
    where superposition plays no role.
    """
    if mode is IdentificationMode.DISREGARD_PHASES:
        return True
    return len(measure(psi, basis).elements) == 1


# ---------------------------------------------------------------------------
# Schmidt decomposition

def schmidt(psi: QState) -> SchmidtData:
    """Decompose a two-qubit state as a1 |v1 w1> + a2 |v2 w2| with
    non-negative descending coefficients; reconstruction is exact to the
    stated tolerance."""
    if psi.dim != 4:
        raise DomainError("Schmidt decomposition needs a dim-4 state")
    m = psi.amplitudes.reshape(2, 2)
    u, s, vh = np.linalg.svd(m)
    left = []
    right = []
    for k in range(2):
        uk = u[:, k].copy()
        wk = vh[k, :].copy()
        pivot = int(np.argmax(np.abs(uk)))
        if abs(uk[pivot]) > 0:
            phase = uk[pivot] / abs(uk[pivot])
            uk = uk / phase
            wk = wk * phase
        left.append(uk)
        right.append(wk)
    return SchmidtData((float(s[0]), float(s[1])), tuple(left), tuple(right))


# ---------------------------------------------------------------------------
# sequent emission

def emit_assertion(state: QState, basis: Optional[Basis] = None,
                   bipartite: bool = False, gamma: str = "G",
                   pred: str = "A", pred2: str = "A'",
                   table: Optional[DomainTable] = None) -> Sequent:
    """Translate a state into the matching assertion.

    Single system: Gamma, z in D |- A(z).  Bipartite separable: the
    two-variable form over the local domains.  Bipartite entangled: the
    correlated form over the shared Schmidt domain DS.
    """
    ctx = ContextVar(gamma)
    if not bipartite:
        if basis is None:
            raise PreconditionError("single-system translation needs a basis")
        domain = measure(state, basis)
        if table is not None:
            table.register(domain)
        return Sequent((ctx, Member(Var("z"), domain.name)),
                       (Atom(pred, (Var("z"),)),))
    if state.dim != 4:
        raise DomainError("bipartite translation needs a dim-4 state")
    local = basis or basis_z()
    if local.dim != 2:
        raise DomainError("local bases for a two-qubit state have dimension 2")
    data = schmidt(state)
    if not data.entangled():
        left = measure(QState(data.left[0]), local)
        right = measure(QState(data.right[0]), local)
        primed = Domain(left.name + "'", right.elements, right.focused,
                        right.kind)
        if table is not None:
            table.register(left)
            table.register(primed)
        return Sequent((ctx, Member(Var("z"), left.name),
                        Member(Var("y"), primed.name)),
                       (Atom(pred, (Var("z"),)), Atom(pred2, (Var("y"),))))
    probs = _rationalize([c ** 2 for c in data.coefficients])
    elements = tuple(Outcome(f"s{k + 1}", p) for k, p in enumerate(probs))
    ds = Domain("DS", elements, focused=True, kind=domain_kind(probs))
    if table is not None:
        table.register(ds)
    return Sequent((ctx, Member(Var("z"), ds.name)),
                   (Correlated("S", Atom(pred, (Var("z"),)),
                               Atom(pred2, (Var("z"),))),))


# ---------------------------------------------------------------------------
# JSON interfaces

def state_to_json(psi: QState) -> list:
    return [[float(a.real), float(a.imag)] for a in psi.amplitudes]


def state_from_json(doc) -> QState:
    amps = []
    for entry in doc:
        if isinstance(entry, (int, float)):
            amps.append(complex(entry, 0.0))
        else:
            re, im = entry
            amps.append(complex(float(re), float(im)))
    return QState(np.array(amps, dtype=complex))


def basis_from_json(doc: dict) -> Basis:
    vectors = [state_from_json(v).amplitudes for v in doc["vectors"]]
    labels = doc.get("labels") or [f"s{i}" for i in range(len(vectors))]
    return Basis(doc.get("name", "B"), tuple(vectors), tuple(labels))
