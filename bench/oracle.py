"""Output checks written apart from the program.

Every expected value here comes from the paper's statements or from the
benchmark's own numpy computation, never from rfod: the end-sequent each
named derivation must reach, the open hypotheses it must leave, which
theory configuration must reject it, and the Born weights and Schmidt
ranks of the quantum translations.  Each check returns a list of
problems; an empty list means the output is right.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: theory changes under which the paper says a script must be rejected:
#: without focus the focus axiom is unavailable (lemma1, prop1, prop3);
#: without singleton axioms the sharp-state fact behind collapse is gone
REJECT_EDITS = {
    "lemma1": (" focused\n", "\n"),
    "prop1": (" focused\n", "\n"),
    "prop3": (" focused\n", "\n"),
    "collapse": ("config singleton_axioms on\n",
                 "config singleton_axioms off\n"),
}

_SQ2 = 1.0 / math.sqrt(2.0)
#: the three local bases, with the labels the paper's domains carry
BASES = {
    "Z": (("s0", np.array([1, 0], complex)), ("s1", np.array([0, 1], complex))),
    "X": (("plus_x", np.array([_SQ2, _SQ2], complex)),
          ("minus_x", np.array([_SQ2, -_SQ2], complex))),
    "Y": (("up_y", np.array([_SQ2, 1j * _SQ2], complex)),
          ("down_y", np.array([_SQ2, -1j * _SQ2], complex))),
}
PROB_TOL = 1e-6
RANK_TOL = 1e-7


def _elements(m: int) -> list:
    return [f"<t{k}, 1/{m}>" for k in range(1, m + 1)]


def expected(target: str, m: int, i: int = 1) -> tuple:
    """(end-sequent, open hypotheses) of a named derivation, as text."""
    el = _elements(m)
    conj = " & ".join(f"A({e})" for e in el)
    forall = "forall x in D . A(x)"
    if target == "reflection":
        return f"{forall}, z in D |- A(z)", []
    if target == "lemma1":
        return f"G |- {forall}", [f"G |- {conj}"]
    if target == "prop1":
        return f"{conj} |- {forall}", []
    if target == "prop2":
        neq = " & ".join(f"z != {e}" for e in el)
        disj = " \\/ ".join(f"z = {e}" for e in el)
        return f"z in D |- {disj}", [f"{neq} |- forall x in D . z != x"]
    if target == "prop3":
        return "G, z in D |- A(z)", ["G, z in D |- A(z)"]
    if target == "collapse":
        return f"{forall} |- forall x in {{t{i}}} . A^f(x)", []
    if target == "distributivity":
        return ("G |- (forall x in D . A(x)) * (forall x' in D' . A'(x'))",
                ["G, z in D, y in D' |- A(z), A'(y)"])
    if target == "uncertainty":
        return "G |- A^f(#up_z), bot_Y", ["G |- A^f(#up_z)"]
    raise ValueError(f"unknown target {target}")


def step_lines(text: str) -> list:
    return [line for line in text.splitlines() if line.startswith("step ")]


def check_script_text(target: str, m: int, i: int, text: str) -> list:
    """End-sequent and hypothesis leaves of an emitted script."""
    lines = step_lines(text)
    if not lines:
        return [f"{target} m={m}: script has no steps"]
    end, hyps = expected(target, m, i)
    problems = []
    got_end = lines[-1].split(" :: ", 1)[1]
    if got_end != end:
        problems.append(f"{target} m={m}: end-sequent {got_end[:120]!r}, "
                        f"expected {end[:120]!r}")
    got_hyps = [line.split(" :: ", 1)[1] for line in lines
                if line.split()[2] == "hypothesis"]
    if got_hyps != hyps:
        problems.append(f"{target} m={m}: open hypotheses {len(got_hyps)}, "
                        f"expected {len(hyps)}")
    return problems


def check_report(target: str, m: int, text: str, report, accept: bool) -> list:
    """Verdict, one report entry per step line, assumptions counted."""
    problems = []
    if report.accepted != accept:
        problems.append(f"{target} m={m}: accepted={report.accepted}, "
                        f"expected {accept}")
    n = len(step_lines(text))
    if len(report.steps) != n:
        problems.append(f"{target} m={m}: report has {len(report.steps)} "
                        f"entries for {n} step lines")
    hyps = sum(1 for line in step_lines(text) if line.split()[2] == "hypothesis")
    if len(report.assumptions) != hyps:
        problems.append(f"{target} m={m}: {len(report.assumptions)} reported "
                        f"assumptions for {hyps} hypothesis leaves")
    return problems


def reject_variant(target: str, text: str) -> str:
    old, new = REJECT_EDITS[target]
    if old not in text:
        raise ValueError(f"{target}: no {old.strip()!r} line to remove")
    return text.replace(old, new, 1)


# ---------------------------------------------------------------------------
# quantum

def random_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_pair(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def schmidt_rank(psi: np.ndarray) -> int:
    s = np.linalg.svd(psi.reshape(2, 2), compute_uv=False)
    return int(np.sum(s > RANK_TOL))


def _probs(elements) -> dict:
    """label -> Fraction from (label, num, den) triples."""
    return {label: Fraction(num, den) for label, num, den in elements}


def _compare_probs(what: str, got: dict, want: dict) -> list:
    problems = []
    kept = {k: w for k, w in want.items() if w > 1e-9}
    if set(got) != set(kept):
        return [f"{what}: outcomes {sorted(got)}, expected {sorted(kept)}"]
    for label, w in kept.items():
        if abs(float(got[label]) - w) > PROB_TOL:
            problems.append(f"{what}: P({label})={float(got[label]):.9f}, "
                            f"Born weight {w:.9f}")
    if sum(got.values(), Fraction(0)) != 1:
        problems.append(f"{what}: probabilities sum to "
                        f"{sum(got.values(), Fraction(0))}, not exactly 1")
    return problems


def born(psi: np.ndarray, basis: str) -> dict:
    return {label: float(abs(np.vdot(v, psi)) ** 2)
            for label, v in BASES[basis]}


def check_single(psi: np.ndarray, basis: str, sequent: str, domain: dict,
                 basis_vector: bool) -> list:
    """Single-system translation: Gamma, z in D<basis> |- A(z)."""
    what = f"measure in {basis}"
    problems = []
    if sequent != f"G, z in D{basis} |- A(z)":
        problems.append(f"{what}: sequent {sequent!r}")
    problems += _compare_probs(what, _probs(domain["elements"]),
                               born(psi, basis))
    if basis_vector and (domain["kind"] != "singleton"
                         or len(domain["elements"]) != 1):
        problems.append(f"{what}: basis vector gave a {domain['kind']} "
                        f"domain of {len(domain['elements'])}")
    return problems


def check_bipartite(psi: np.ndarray, sequent: str, domains: list) -> list:
    """Two-variable form for Schmidt rank 1, correlated form for rank 2."""
    by_name = {d["name"]: d for d in domains}
    m = psi.reshape(2, 2)
    if schmidt_rank(psi) == 1:
        problems = []
        if sequent != "G, z in DZ, y in DZ' |- A(z), A'(y)":
            problems.append(f"product state: sequent {sequent!r}")
        left = {"s0": float(np.sum(abs(m[0]) ** 2)),
                "s1": float(np.sum(abs(m[1]) ** 2))}
        right = {"s0": float(np.sum(abs(m[:, 0]) ** 2)),
                 "s1": float(np.sum(abs(m[:, 1]) ** 2))}
        for name, want in (("DZ", left), ("DZ'", right)):
            if name not in by_name:
                problems.append(f"product state: no domain {name}")
                continue
            problems += _compare_probs(f"product state {name}",
                                       _probs(by_name[name]["elements"]), want)
        return problems
    problems = []
    if sequent != "G, z in DS |- A(z) ,_S A'(z)":
        problems.append(f"entangled state: sequent {sequent!r}")
    if "DS" not in by_name:
        return problems + ["entangled state: no domain DS"]
    s = np.linalg.svd(m, compute_uv=False)
    want = {"s1": float(s[0] ** 2), "s2": float(s[1] ** 2)}
    return problems + _compare_probs("entangled state DS",
                                     _probs(by_name["DS"]["elements"]), want)
