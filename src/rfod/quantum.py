"""Minimal Hilbert-space backend (dimensions 2 and 4).

Born-rule measurement produces random first-order domains, phase
identification decides whether a domain may be declared focused, density
operators realize the propositional (mixed-state) reading, and the Schmidt
decomposition separates product from entangled bipartite states.  The
emitted assertions land in the same sequent syntax the kernel checks.

All tolerances live in TOLERANCES.  Probabilities cross into the syntax
layer as the rationals of Fraction.limit_denominator, computed on integers
(`_rationalize`), floored at 1/RATIONAL_DENOMINATOR_LIMIT and renormalized.

States, bases and the Schmidt data are tuples of Python complex numbers,
and measurement, translation and the Schmidt decomposition are pure
Python.  Only density operators (`DensityOp`, `density_of`, `purity`) and
`SchmidtData.reconstruction` use numpy, which loads at their first use:
`check`, `derive`, `measure` and `translate` never import it.
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DomainError, DslSyntaxError, PreconditionError
from .syntax.ast import (
    Atom, ContextVar, Correlated, Domain, DomainTable, Member, Outcome,
    Sequent, Sharp, Var, _Frozen, _ratio_sum, domain_kind, term_prob,
)
from .syntax.parser import name_fault

TOLERANCES = {
    "norm": 1e-9,            # unit-vector and trace checks
    "orthogonality": 1e-9,   # basis inner products
    "outcome_prune": 1e-9,   # Born weights below this are dropped
    "hermitian": 1e-9,       # density-operator symmetry check
    "eigen_floor": -1e-9,    # density eigenvalues must not dip below
    "entangled": 1e-7,       # a2 above this means entangled
}
RATIONAL_DENOMINATOR_LIMIT = 10**6


class _Numpy:
    """Stands in for numpy until the first attribute read, which imports it
    and rebinds the module-level `np` to numpy itself."""

    def __getattr__(self, name):
        global np
        import numpy as np
        return getattr(np, name)


np = _Numpy()


class IdentificationMode(enum.Enum):
    DISREGARD_PHASES = "disregard_phases"
    STRICT = "strict"


def _vdot(x: tuple, y: tuple) -> complex:
    """The inner product <x|y>, conjugate-linear in x."""
    return sum(a.conjugate() * b for a, b in zip(x, y))


def _norm(x: tuple) -> float:
    return math.sqrt(sum(a.real * a.real for a in x)
                     + sum(a.imag * a.imag for a in x))


class QState(_Frozen):
    """Unit complex vector of dimension 2 or 4, a tuple of amplitudes."""

    __slots__ = ("amplitudes",)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, amplitudes):
        amp = tuple(map(complex, amplitudes))
        object.__setattr__(self, "amplitudes", amp)
        if len(amp) not in (2, 4):
            raise DomainError(f"state dimension must be 2 or 4, got {len(amp)}")
        norm = _norm(amp)
        if not abs(norm - 1.0) <= TOLERANCES["norm"]:  # NaN fails too
            raise DomainError(f"state is not normalized (norm {norm})")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)


class Basis(_Frozen):
    """Named orthonormal basis with one state label per vector."""

    __slots__ = ("name", "vectors", "labels")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, name: str, vectors, labels):
        vectors = tuple(tuple(map(complex, v)) for v in vectors)
        labels = tuple(labels)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "labels", labels)
        dim = len(vectors[0])
        if len(vectors) != dim:
            raise DomainError("basis must have as many vectors as dimensions")
        if len(labels) != dim:
            raise DomainError("basis needs one label per vector")
        for i, v in enumerate(vectors):
            if len(v) != dim:
                raise DomainError("basis vectors differ in dimension")
            if not abs(_norm(v) - 1.0) <= TOLERANCES["norm"]:
                raise DomainError(f"basis vector {i} is not normalized")
            for w in vectors[i + 1:]:
                if abs(_vdot(v, w)) > TOLERANCES["orthogonality"]:
                    raise DomainError("basis vectors are not orthogonal")

    @property
    def dim(self) -> int:
        return len(self.vectors[0])

    def vector_for(self, label: str) -> tuple:
        try:
            return self.vectors[self.labels.index(label)]
        except ValueError:
            raise DomainError(f"basis {self.name} has no state label {label}")


class DensityOp(_Frozen):
    """Hermitian, unit-trace, positive matrix."""

    __slots__ = ("matrix",)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("density operator must be square")
        if np.max(np.abs(m - m.conj().T)) > TOLERANCES["hermitian"]:
            raise DomainError("density operator is not Hermitian")
        if abs(np.trace(m).real - 1.0) > TOLERANCES["norm"]:
            raise DomainError("density operator trace is not 1")
        if np.min(np.linalg.eigvalsh(m)) < TOLERANCES["eigen_floor"]:
            raise DomainError("density operator has a negative eigenvalue")


class SchmidtData(_Frozen):
    """Descending non-negative coefficients with the two local bases."""

    __slots__ = ("coefficients", "left", "right")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, coefficients: tuple, left: tuple, right: tuple):
        a = tuple(float(c) for c in coefficients)
        object.__setattr__(self, "coefficients", a)
        object.__setattr__(self, "left",
                           tuple(tuple(map(complex, v)) for v in left))
        object.__setattr__(self, "right",
                           tuple(tuple(map(complex, v)) for v in right))
        if a[0] < a[1] or a[1] < -TOLERANCES["norm"]:
            raise DomainError("coefficients must be descending and non-negative")
        if abs(a[0] ** 2 + a[1] ** 2 - 1.0) > TOLERANCES["norm"]:
            raise DomainError("squared coefficients must sum to 1")

    def reconstruction(self):
        """The two-qubit amplitudes as a numpy array."""
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
    return QState(NAMED_STATES[name])


def basis_z() -> Basis:
    return Basis("Z", ([1, 0], [0, 1]), ("s0", "s1"))


def basis_x() -> Basis:
    return Basis("X", ([_SQ2, _SQ2], [_SQ2, -_SQ2]), ("plus_x", "minus_x"))


def basis_y() -> Basis:
    return Basis("Y", ([_SQ2, 1j * _SQ2], [_SQ2, -1j * _SQ2]),
                 ("up_y", "down_y"))


BUILTIN_BASES = {"Z": basis_z, "X": basis_x, "Y": basis_y}
#: the local basis of a bipartite translation given none (a Basis is frozen)
_LOCAL_Z = basis_z()


def named_basis(name: str) -> Basis:
    if name not in BUILTIN_BASES:
        raise DomainError(f"unknown basis name {name}")
    return BUILTIN_BASES[name]()


# ---------------------------------------------------------------------------
# measurement

def _rationalize(weights: Sequence[float]) -> list:
    """The weights as rationals summing to 1: each is first what Fraction(w)
    .limit_denominator(RATIONAL_DENOMINATOR_LIMIT) gives, by its walk on
    w.as_integer_ratio() (of the last convergent p1/q1 and the semiconvergent
    beside it, the nearer to w, ties to p1/q1; Khinchin, "Continued
    Fractions", 1964), then raised to 1/RATIONAL_DENOMINATOR_LIMIT if below."""
    limit = RATIONAL_DENOMINATOR_LIMIT
    pairs = []
    for w in weights:
        num, den = n, d = w.as_integer_ratio()
        if den > limit:
            p0, q0, p1, q1 = 0, 1, 1, 0
            while True:
                a = n // d
                if q0 + a * q1 > limit:
                    break
                p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
                n, d = d, n - a * d
            k = (limit - q0) // q1
            p0, q0 = p0 + k * p1, q0 + k * q1
            if abs(p1 * den - num * q1) * q0 <= abs(p0 * den - num * q0) * q1:
                num, den = p1, q1
            else:
                num, den = p0, q0
        pairs.append((1, limit) if num * limit < den else (num, den))
    if not pairs:
        raise DomainError("no outcome survives the pruning threshold")
    total, den = _ratio_sum(pairs)
    return [Fraction(n * den, d * total) for n, d in pairs]


def born_weights(psi: QState, basis: Basis) -> list:
    """|<v|psi>|^2 for each vector v of the basis, in its order."""
    if psi.dim != basis.dim:
        raise DomainError(
            f"dimension mismatch: state {psi.dim}, basis {basis.dim}")
    return [abs(_vdot(v, psi.amplitudes)) ** 2 for v in basis.vectors]


def measure(psi: QState, basis: Basis) -> Domain:
    """Born-rule domain: one outcome per basis vector with weight above the
    pruning threshold; name D<basis>, e.g. DZ."""
    weights = []
    labels = []
    for label, w in zip(basis.labels, born_weights(psi, basis)):
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
        v = np.asarray(basis.vector_for(element.state))
        rho += float(term_prob(element)) * np.outer(v, v.conj())
    return DensityOp(rho)


def purity(rho: DensityOp) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def phase_equiv(x: QState, y: QState,
                mode: IdentificationMode = IdentificationMode.DISREGARD_PHASES
                ) -> bool:
    if x.dim != y.dim:
        raise DomainError("dimension mismatch")
    if mode is IdentificationMode.STRICT:
        return max(abs(a - b) for a, b in zip(x.amplitudes, y.amplitudes)) \
            <= TOLERANCES["norm"]
    return abs(abs(_vdot(x.amplitudes, y.amplitudes)) - 1.0) \
        <= TOLERANCES["norm"]


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

def _complement(v: tuple) -> tuple:
    """The unit vector orthogonal to the unit 2-vector v with det [v, .] = 1."""
    return (-v[1].conjugate(), v[0].conjugate())


def schmidt(psi: QState) -> SchmidtData:
    """Decompose a two-qubit state as a1 |v1 w1> + a2 |v2 w2> with
    non-negative descending coefficients; reconstruction is exact to the
    stated tolerance.

    The closed-form SVD of the 2x2 amplitude matrix M = [[a, b], [c, d]]
    (Nielsen & Chuang, section 2.5): a1^2 is the larger eigenvalue of
    M M^dagger, a2 = |det M| / a1, which keeps a small a2 free of
    cancellation, v1 is that eigenvalue's eigenvector and v2 its
    complement, and a_k w_k = v_k^dagger M.  Each v_k is turned so that its
    largest-magnitude entry is real and positive.
    """
    if psi.dim != 4:
        raise DomainError("Schmidt decomposition needs a dim-4 state")
    a, b, c, d = psi.amplitudes
    p = abs(a) ** 2 + abs(b) ** 2
    q = abs(c) ** 2 + abs(d) ** 2
    r = a * c.conjugate() + b * d.conjugate()  # (M M^dagger)[0][1]
    h = (p - q) / 2
    gap = math.hypot(h, abs(r))  # half the distance between the eigenvalues
    s1 = math.sqrt((p + q) / 2 + gap)
    s2 = min(abs(a * d - b * c) / s1, s1)
    # the larger eigenvalue's eigenvector, from the better-scaled row
    v = (h + gap, r.conjugate()) if h >= 0 else (r, gap - h)
    size = _norm(v)
    u1 = (v[0] / size, v[1] / size) if size else (1 + 0j, 0j)
    x1 = (u1[0].conjugate() * a + u1[1].conjugate() * c,
          u1[0].conjugate() * b + u1[1].conjugate() * d)
    w1 = (x1[0] / _norm(x1), x1[1] / _norm(x1))
    u2 = _complement(u1)
    # v2^dagger M lies along w1's complement up to a phase, which det M fixes
    w2 = _complement(w1)
    det = a * d - b * c
    if det:
        phase = det / abs(det)
        w2 = (w2[0] * phase, w2[1] * phase)
    left = []
    right = []
    for uk, wk in ((u1, w1), (u2, w2)):
        pivot = 0 if abs(uk[0]) >= abs(uk[1]) else 1
        if abs(uk[pivot]) > 0:
            phase = uk[pivot] / abs(uk[pivot])
            uk = (uk[0] / phase, uk[1] / phase)
            wk = (wk[0] * phase, wk[1] * phase)
        left.append(uk)
        right.append(wk)
    return SchmidtData((s1, s2), tuple(left), tuple(right))


# ---------------------------------------------------------------------------
# sequent emission

def emit_assertion(state: QState, basis: Optional[Basis] = None,
                   bipartite: bool = False, gamma: str = "G", *,
                   table: DomainTable) -> Sequent:
    """Translate a state into the matching assertion, registering its
    domains in ``table``.

    Single system: Gamma, z in D |- A(z).  Bipartite separable: the
    two-variable form over the local domains.  Bipartite entangled: the
    correlated form over the shared Schmidt domain DS.
    """
    ctx = ContextVar(gamma)
    if not bipartite:
        if basis is None:
            raise PreconditionError("single-system translation needs a basis")
        domain = measure(state, basis)
        table.register(domain)
        return Sequent((ctx, Member(Var("z"), domain.name)),
                       (Atom("A", (Var("z"),)),))
    if state.dim != 4:
        raise DomainError("bipartite translation needs a dim-4 state")
    local = basis or _LOCAL_Z
    if local.dim != 2:
        raise DomainError("local bases for a two-qubit state have dimension 2")
    data = schmidt(state)
    if not data.entangled():
        left = measure(QState(data.left[0]), local)
        right = measure(QState(data.right[0]), local)
        primed = Domain(left.name + "'", right.elements, right.focused,
                        right.kind)
        table.register(left)
        table.register(primed)
        return Sequent((ctx, Member(Var("z"), left.name),
                        Member(Var("y"), primed.name)),
                       (Atom("A", (Var("z"),)), Atom("A'", (Var("y"),))))
    probs = _rationalize([c ** 2 for c in data.coefficients])
    elements = tuple(Outcome(f"s{k + 1}", p) for k, p in enumerate(probs))
    ds = Domain("DS", elements, focused=True, kind=domain_kind(probs))
    table.register(ds)
    return Sequent((ctx, Member(Var("z"), ds.name)),
                   (Correlated("S", Atom("A", (Var("z"),)),
                               Atom("A'", (Var("z"),))),))


# ---------------------------------------------------------------------------
# JSON interfaces

def state_to_json(psi: QState) -> list:
    return [[float(a.real), float(a.imag)] for a in psi.amplitudes]


def _real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def state_from_json(doc) -> QState:
    """Amplitudes from a JSON list of reals or [re, im] pairs."""
    if not isinstance(doc, list):
        raise DslSyntaxError("state JSON must be a list of amplitudes", 1, 1)
    amps = []
    for entry in doc:
        if _real(entry):
            amps.append(complex(entry))
        elif (isinstance(entry, list) and len(entry) == 2
              and all(map(_real, entry))):
            amps.append(complex(*entry))
        else:
            raise DslSyntaxError("amplitude must be a number or a [re, im] "
                                 f"pair, got {entry!r}", 1, 1)
    return QState(amps)


def basis_from_json(doc: dict) -> Basis:
    """Basis from a JSON object: "vectors" (states as in state_from_json),
    optional "labels" and "name": identifiers that are not keywords, the
    labels distinct and the name not ending in ^f."""
    if not (isinstance(doc, dict) and isinstance(doc.get("vectors"), list)
            and doc["vectors"]):
        raise DslSyntaxError(
            'basis JSON must be an object with a non-empty "vectors" list',
            1, 1)
    vectors = [state_from_json(v).amplitudes for v in doc["vectors"]]
    labels = doc.get("labels") or [f"s{i}" for i in range(len(vectors))]
    name = doc.get("name", "B")
    if not (isinstance(labels, list) and isinstance(name, str)
            and all(isinstance(label, str) for label in labels)):
        raise DslSyntaxError(
            'basis "name" must be a string and "labels" a list of strings',
            1, 1)
    # the domain measure() makes, D<name> over the labels, must read back
    for what, text in [("name", name)] + [("label", lab) for lab in labels]:
        fault = name_fault(text, label=what == "label")
        if fault:
            raise DslSyntaxError(f"basis {what} {text!r} {fault}", 1, 1)
    if len(set(labels)) != len(labels):
        raise DslSyntaxError(f"basis labels {labels!r} are not distinct",
                             1, 1)
    return Basis(name, tuple(vectors), tuple(labels))
