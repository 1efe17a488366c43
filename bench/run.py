"""rfod benchmark: derive -> script -> check, small corpora, the cold CLI.

    python3 bench/run.py --workload named_large --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  Details of the run (raw and
calibrated times per round, calibration, problems found, the verdict
digest) go to ``.bench_out/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import oracle  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
CLI_PROBE_REPEATS = 3
TARGETS = ("reflection", "lemma1", "prop1", "prop2", "prop3", "collapse",
           "distributivity", "uncertainty")

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "derive_steps_per_s": "1/s",
    "check_steps_per_s": "1/s", "reject_steps_per_s": "1/s",
    "script_bytes_per_step": "B/step", "translate_per_s": "1/s",
    "cli_check_s": "s", "cli_derive_s": "s", "cli_translate_s": "s",
}
#: end-to-end rates: metric -> accumulator (units per calibrated second)
RATES = {"derive_steps_per_s": "derive", "check_steps_per_s": "check",
         "reject_steps_per_s": "reject", "translate_per_s": "translate"}
#: end-to-end CLI times: metric -> accumulator (calibrated seconds per child)
CLI_TIMES = {"cli_check_s": "cli_check", "cli_derive_s": "cli_derive",
             "cli_translate_s": "cli_translate"}


#: how every workload child runs `rfod`: as `python -m rfod.cli` does, and at
#: its exit it appends its own peak RSS (VmHWM, which exec resets) to
#: stderr.  The parent cannot take that figure from wait4: a child made by
#: vfork starts its rusage from the parent's peak, so ru_maxrss would read
#: the harness's memory.
_CLI_CHILD = """
import runpy, sys
try:
    runpy.run_module("rfod.cli", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as f:
        kb = next(l.split()[1] for l in f if l.startswith("VmHWM:"))
    sys.stderr.write(f"\\nbench-peak-rss-kb {kb}\\n")
"""
_PEAK_MARK = "bench-peak-rss-kb "


def child_env() -> dict:
    """Environment of every child interpreter: the checkout's sources and a
    bytecode cache of the benchmark's own (see README, cli_cold)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPROFILEIMPORTTIME",
                        "PYTHONSTARTUP", "PYTHONHOME")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


# ---------------------------------------------------------------------------
# harness

class Harness:
    """Rounds, calibrated segments, operation counts and output checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors = []       # operations that raised or exited wrongly
        self.problems = []     # wrong outputs
        self.verdicts = []     # one line per checked output, last round
        self.rounds = []
        self.round = None
        self.segments = []     # raw record of every segment, for the log
        self.child_peak_kb = defaultdict(int)  # command -> largest child peak

    # -- rounds and segments ---------------------------------------------------
    def start_round(self) -> None:
        self.verdicts = []
        self.round = {"acc": defaultdict(lambda: [0.0, 0.0]),
                      "raw_s": 0.0, "norm_s": 0.0,
                      "layers": defaultdict(float)}
        self.rounds.append(self.round)

    def timed(self, fn, child: bool = False):
        """Run fn() as one segment; returns (result, calibrated seconds).

        The segment is scaled by calibration samples taken just before and
        just after it (calib.py): the kernel's time for an in-process
        segment, a bare interpreter start for one that runs a child."""
        sample = (lambda: calib.bare_start(self.env)) if child else calib.measure
        ref = calib.BARE_REF_S if child else calib.REF_S
        # garbage left by earlier segments and output checks is collected
        # here, outside the timings, so that neither the segment nor a
        # calibration sample pays for it
        gc.collect()
        if not child:
            calib.measure()  # warm the kernel's caches
        before = sample()
        if self.tracer is not None:
            self.tracer.take()
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.enabled = False
        gc.collect()
        after = sample()
        factor = ref / ((before + after) / 2)
        self.segments.append({"round": len(self.rounds) - 1, "child": child,
                              "t": t, "cal": [before, after],
                              "factor": factor, "work": {}})
        self.round["raw_s"] += t
        self.round["norm_s"] += t * factor
        if self.tracer is not None:
            self._fold_layers(factor)
        return result, t * factor

    def add(self, key: str, units: float, seconds: float) -> None:
        acc = self.round["acc"][key]
        acc[0] += units
        acc[1] += seconds
        self.segments[-1]["work"][key] = units

    def _fold_layers(self, factor: float) -> None:
        self_s, calls, sizes = self.tracer.take()
        layers = self.round["layers"]
        for name, s in self_s.items():
            layers[name + "_s"] += s * factor
        for name, n in calls.items():
            layers[name + "_calls"] += n
        for name, n in sizes.items():
            layers[name] += n

    # -- operations --------------------------------------------------------------
    def op(self, label: str, fn, *args):
        """One attempted operation; an exception counts it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # an rfod fault must not end the run
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}"[:300])
            return None

    def expect(self, problems: list) -> None:
        self.problems.extend(problems)

    def verdict(self, line: str) -> None:
        self.verdicts.append(line)

    def cli(self, label: str, args: list, expect_exit: int):
        """One cold `rfod` process; returns its stdout, or None on a wrong
        exit code."""
        self.attempted += 1
        proc, seconds = self.timed(
            lambda: calib.run_child(["-c", _CLI_CHILD, *args], self.env,
                                    ROOT)[0], child=True)
        lines = proc.stderr.splitlines()
        for line in lines:
            if line.startswith(_PEAK_MARK):
                self.child_peak_kb[args[0]] = max(
                    self.child_peak_kb[args[0]], int(line[len(_PEAK_MARK):]))
        proc.stderr = "\n".join(line for line in lines
                                 if not line.startswith(_PEAK_MARK))
        if proc.returncode != expect_exit:
            # 0 and 1 are verdicts, so a swap is a wrong output; anything
            # else (usage error, traceback) is a failed operation
            message = (f"{label}: exit {proc.returncode}, expected "
                       f"{expect_exit}: {proc.stderr.strip()[-300:]}")
            if proc.returncode in (0, 1):
                self.problems.append(message)
            else:
                self.failed += 1
                self.errors.append(message)
            return None, seconds
        self.verdict(f"{label}: exit {proc.returncode}")
        return proc.stdout, seconds

    # -- results -----------------------------------------------------------------
    def metric_values(self) -> dict:
        per_round = defaultdict(list)
        for rnd in self.rounds:
            acc = rnd["acc"]
            for metric, key in RATES.items():
                if acc[key][1] > 0:
                    per_round[metric].append(acc[key][0] / acc[key][1])
            for metric, key in CLI_TIMES.items():
                if acc[key][0] > 0:
                    per_round[metric].append(acc[key][1] / acc[key][0])
            if acc["bytes"][1] > 0:
                per_round["script_bytes_per_step"].append(
                    acc["bytes"][0] / acc["bytes"][1])
        return {m: statistics.median(v) for m, v in per_round.items()}


# ---------------------------------------------------------------------------
# building the named derivations (what `rfod derive` does)

#: the title line `rfod derive` writes for each target
TITLES = {
    "reflection": "reflection: universal instantiation from identity",
    "lemma1": "lemma: conjunction over a focused domain to the universal",
    "prop1": "mixed-state formula entails the predicative state",
    "prop2": "schematic conjunction-to-universal derivability focuses",
    "prop3": "reversibility witness: instantiate then generalize back",
    "collapse": "collapse and repeatability through the sharp-state axiom",
    "distributivity": "star distributes over the universal (classical mode)",
    "uncertainty": "uncertainty of the incompatible observable as labelled "
                   "falsum",
}


def build(item):
    """(derivation, domain table, theory config, nested derivation) for one
    derive target, with the configuration `rfod derive` gets from
    cli_derive_args; the nested derivation is checked too (distributivity
    only, else None)."""
    from rfod import theorems
    from rfod.calculus.checker import Derivation
    from rfod.calculus.rules import FORWARD, RuleId, TheoryConfig
    from rfod.syntax import parser
    from rfod.syntax.ast import ContextVar, Domain, DomainTable, Outcome, Sharp

    target, m, i, n = item
    cfg = TheoryConfig(
        focused_domains=frozenset() if target == "reflection" else
        frozenset({"D"}),
        right_contexts_in_forall=(target == "distributivity"))
    table = DomainTable()
    gamma = (ContextVar("G"),)
    if target == "uncertainty":
        uy = Domain("DUY", (Outcome("up_y", Fraction(1, 2)),
                            Outcome("down_y", Fraction(1, 2))), kind="uniform")
        table.register(uy)
        base = parser.parse_sequent("G |- A^f(#up_z)")
        goal = theorems.build_uncertainty(base, uy)
        leaf = Derivation(base, RuleId.HYPOTHESIS)
        return (Derivation(goal, RuleId.EQ_BOT_R, FORWARD, {"label": "Y"},
                           (leaf,)), table, cfg, None)
    domain = theorems.schematic_domain("D", m)
    table.register(domain)
    if target == "reflection":
        d = theorems.derive_reflection(domain, "A")
    elif target == "lemma1":
        d = theorems.derive_lemma1(gamma, "A", domain, cfg=cfg)
    elif target == "prop1":
        d = theorems.derive_prop1("A", domain, cfg=cfg)
    elif target == "prop2":
        d = theorems.derive_prop2(domain)
    elif target == "prop3":
        d = theorems.check_reversibility(domain, cfg, gamma, "A").witness
    elif target == "collapse":
        _, d = theorems.derive_collapse_and_repeat(domain, i, "A", cfg=cfg)
        label = f"t{i}"
        table.register(Domain("{" + label + "}", (Sharp(label),),
                              kind="singleton"))
    elif target == "distributivity":
        other = theorems.schematic_domain("D'", n)
        table.register(other)
        nested, d = theorems.derive_distributivity(domain, other, cfg=cfg,
                                                   gamma=gamma)
        return d, table, cfg, nested
    else:
        raise ValueError(f"unknown target {target}")
    return d, table, cfg, None


def derive(item):
    """Build, check the nested derivation if any, serialize and check in
    memory: (text, report, nested report or None)."""
    from rfod.calculus import checker, script
    d, table, cfg, nested = build(item)
    nested_report = None if nested is None else checker.check(nested, cfg,
                                                              table)
    text = script.serialize_derivation(d, table, config=cfg,
                                       title=TITLES[item[0]])
    return text, checker.check(d, cfg, table), nested_report


def check_text(text: str):
    """From text to verdict, as `rfod check` does."""
    from rfod.calculus import script
    return script.check_script(script.parse_script(text))


def cli_derive_args(item, out: Path) -> list:
    target, m, i, n = item
    args = ["derive", target, "--m", str(m), "--out", str(out)]
    if target == "collapse":
        args += ["--i", str(i)]
    if target == "distributivity":
        args += ["--n", str(n)]
    if target != "reflection":
        args += ["--focused", "D"]
    return args


# ---------------------------------------------------------------------------
# the derive / check / reject paths

def derive_segment(h: Harness, items: list) -> list:
    """Every item through the derive path in one segment; returns texts."""
    results, seconds = h.timed(
        lambda: [h.op(f"derive {it[0]} m={it[1]}", derive, it) for it in items])
    texts = []
    steps = size = 0
    for item, res in zip(items, results):
        if res is None:
            texts.append(None)
            continue
        text, report, nested = res
        target, m, i, _ = item
        if nested is not None and not nested.accepted:
            h.expect([f"derive {target} m={m}: nested derivation rejected: "
                      f"{nested.summary()}"])
        h.expect(oracle.check_script_text(target, m, i, text))
        h.expect(oracle.check_report(target, m, text, report, True))
        h.verdict(f"derive {target} m={m}: {report.accepted}")
        n = len(oracle.step_lines(text))
        steps += n
        size += len(text.encode())
        texts.append(text)
    h.add("derive", steps, seconds)
    h.add("bytes", size, steps)
    return texts


def check_segment(h: Harness, key: str, jobs: list, accept: bool) -> None:
    """(item, text) jobs from text to verdict in one segment."""
    jobs = [(item, text) for item, text in jobs if text is not None]
    reports, seconds = h.timed(
        lambda: [h.op(f"{key} {item[0]} m={item[1]}", check_text, text)
                 for item, text in jobs])
    steps = 0
    for (item, text), report in zip(jobs, reports):
        if report is None:
            continue
        h.expect(oracle.check_report(item[0], item[1], text, report, accept))
        h.verdict(f"{key} {item[0]} m={item[1]}: {report.accepted}")
        steps += len(oracle.step_lines(text))
    h.add(key, steps, seconds)


def reject_jobs(items: list, texts: list) -> list:
    return [(item, oracle.reject_variant(item[0], text))
            for item, text in zip(items, texts)
            if item[0] in oracle.REJECT_EDITS and text is not None]


# ---------------------------------------------------------------------------
# quantum translation

def make_states(rng, singles: int, pairs: int) -> list:
    """Seeded states: random qubits in the three bases, every basis vector
    in its own basis, and random product, entangled and Bell pairs."""
    from rfod import quantum
    import numpy as np

    bases = {b: quantum.named_basis(b) for b in oracle.BASES}
    out = []
    for k in range(singles):
        b = "ZXY"[k % 3]
        out.append(("single", oracle.random_qubit(rng), b, bases[b], False))
    for b, vectors in oracle.BASES.items():
        for _, v in vectors:
            out.append(("single", v, b, bases[b], True))
    for k in range(pairs):
        if k % 2:
            psi = np.kron(oracle.random_qubit(rng), oracle.random_qubit(rng))
        else:
            psi = oracle.random_pair(rng)
        out.append(("pair", psi, None, None, False))
    for name in ("phi_plus", "psi_minus", "product_0plus"):
        out.append(("pair", np.array(quantum.NAMED_STATES[name], complex),
                    None, None, False))
    return [(kind, psi, quantum.QState(psi), b, basis, vec)
            for kind, psi, b, basis, vec in out]


def _translate(state):
    from rfod import quantum
    from rfod.syntax.ast import DomainTable
    kind, _, q, _, basis, _ = state
    table = DomainTable()
    if kind == "single":
        domain = quantum.measure(q, basis)
        return quantum.emit_assertion(q, basis, table=table), [domain]
    return (quantum.emit_assertion(q, bipartite=True, table=table),
            list(table.domains()))


def domain_doc(d) -> dict:
    return {"name": d.name, "kind": d.kind,
            "elements": [(e.state, *Fraction(getattr(e, "prob", 1))
                          .as_integer_ratio()) for e in d.elements]}


def translate_segment(h: Harness, states: list) -> None:
    from rfod.syntax import printer
    results, seconds = h.timed(
        lambda: [h.op(f"translate {s[0]}", _translate, s) for s in states])
    done = 0
    for state, res in zip(states, results):
        if res is None:
            continue
        kind, psi, _, b, _, vec = state
        sequent, domains = res
        text = printer.render_sequent(sequent)
        docs = [domain_doc(d) for d in domains]
        if kind == "single":
            h.expect(oracle.check_single(psi, b, text, docs[0], vec))
        else:
            h.expect(oracle.check_bipartite(psi, text, docs))
        h.verdict(f"translate {kind}: {text}")
        done += 1
    h.add("translate", done, seconds)


def state_json(psi) -> str:
    return json.dumps([[float(a.real), float(a.imag)] for a in psi])


# ---------------------------------------------------------------------------
# cold CLI operations

def cli_derive(h: Harness, item, path: Path, count_steps: bool) -> None:
    stdout, seconds = h.cli(f"cli derive {item[0]} m={item[1]}",
                            cli_derive_args(item, path), 0)
    h.add("cli_derive", 1, seconds)
    if stdout is None:
        return
    text = path.read_text()
    h.expect(oracle.check_script_text(item[0], item[1], item[2], text))
    if not stdout.rstrip().endswith("ACCEPTED"):
        h.expect([f"cli derive {item[0]}: report does not end ACCEPTED"])
    if count_steps:
        steps = len(oracle.step_lines(text))
        h.add("derive", steps, seconds)
        h.add("bytes", len(text.encode()), steps)


def cli_check(h: Harness, path: Path, accept: bool, rate_key=None) -> None:
    """Cold `rfod check`; an accepting one counts in cli_check_s, and
    rate_key, if given, also takes its steps."""
    verb = "ACCEPTED" if accept else "REJECTED"
    stdout, seconds = h.cli(f"cli check {path.name}", ["check", str(path)],
                            0 if accept else 1)
    if accept:
        h.add("cli_check", 1, seconds)
    if stdout is None:
        return
    text = path.read_text()
    lines = stdout.rstrip().splitlines()
    steps = len(oracle.step_lines(text))
    if not lines or not lines[-1].startswith(verb):
        h.expect([f"cli check {path.name}: last line {lines[-1:]}, "
                  f"expected {verb}"])
    if sum(1 for line in lines if line.startswith("step ")) != steps:
        h.expect([f"cli check {path.name}: report lines differ from the "
                  f"{steps} step lines"])
    if rate_key is not None:
        h.add(rate_key, steps, seconds)


def cli_translate(h: Harness, psi, count: bool) -> None:
    stdout, seconds = h.cli("cli translate", [
        "translate", "--bipartite", "--json", "--state", state_json(psi)], 0)
    h.add("cli_translate", 1, seconds)
    if count:
        h.add("translate", 1, seconds)
    if stdout is None:
        return
    doc = json.loads(stdout)
    h.expect(oracle.check_bipartite(psi, doc["sequent"], doc["domains"]))


# ---------------------------------------------------------------------------
# workloads

class NamedLarge:
    """The named results at large m, through derive, check and reject,
    plus a small translate batch and the CLI on a large script."""

    ITEMS = [("lemma1", 64, 1, None), ("prop1", 32, 1, None),
             ("prop3", 64, 1, None)]
    CLI_ITEM = ("lemma1", 32, 1, None)

    def generate(self, seed: int) -> dict:
        import numpy as np
        rng = np.random.default_rng(seed)
        return {"states": make_states(rng, 360, 240),
                "cli_state": oracle.random_pair(rng)}

    def round(self, h: Harness, inp: dict) -> None:
        for item in self.ITEMS:
            (text,) = derive_segment(h, [item])
            if text is None:
                continue
            check_segment(h, "check", [(item, text)], True)
            check_segment(h, "reject", reject_jobs([item], [text]), False)
        translate_segment(h, inp["states"])
        path = OUT / "named_large.script"
        # at m=64 these children are half start-up and half rfod work, and
        # neither calibration fits them; at m=32 start-up dominates, and
        # two samples a round steady the median
        for _ in range(2):
            cli_derive(h, self.CLI_ITEM, path, False)
            cli_check(h, path, True)
        cli_translate(h, inp["cli_state"], False)


class CorpusSmall:
    """Every derive target at m = 2..8 in seeded order, the must-reject
    variants, a seeded batch of states, and the CLI on one seeded item."""

    def generate(self, seed: int) -> dict:
        import random
        import numpy as np
        draw = random.Random(seed)
        items = [(t, m, draw.randint(1, m), draw.randint(2, 8))
                 for t in TARGETS for m in range(2, 9)]
        draw.shuffle(items)
        rng = np.random.default_rng(seed)
        return {"items": items, "states": make_states(rng, 300, 200),
                "cli_item": items[0], "cli_state": oracle.random_pair(rng)}

    #: the derive pass over 56 small items takes about 70 ms, too short a
    #: segment to calibrate steadily, so one segment derives them 4 times
    DERIVE_REPEAT = 4

    def round(self, h: Harness, inp: dict) -> None:
        items = inp["items"]
        texts = derive_segment(h, items * self.DERIVE_REPEAT)[:len(items)]
        check_segment(h, "check", list(zip(items, texts)), True)
        check_segment(h, "reject", reject_jobs(items, texts), False)
        translate_segment(h, inp["states"])
        path = OUT / "corpus_small.script"
        cli_derive(h, inp["cli_item"], path, False)
        cli_check(h, path, True)
        cli_translate(h, inp["cli_state"], False)


class CliCold:
    """Fresh `rfod` processes: derive at the default size, check it, check
    a must-reject script, translate a seeded two-qubit state."""

    ITEM = ("reflection", 2, 1, None)

    def generate(self, seed: int) -> dict:
        import numpy as np
        rng = np.random.default_rng(seed)
        text, _, _ = derive(("prop1", 2, 1, None))
        reject = OUT / "cli_cold_reject.script"
        reject.write_text(oracle.reject_variant("prop1", text))
        return {"reject": reject, "cli_state": oracle.random_pair(rng)}

    def round(self, h: Harness, inp: dict) -> None:
        path = OUT / "cli_cold.script"
        cli_derive(h, self.ITEM, path, True)
        cli_check(h, path, True, "check")
        cli_check(h, inp["reject"], False, "reject")
        cli_translate(h, inp["cli_state"], True)


WORKLOADS = {"named_large": NamedLarge, "corpus_small": CorpusSmall,
             "cli_cold": CliCold}


# ---------------------------------------------------------------------------
# set-up, CLI layer probes

_IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import rfod
print(time.perf_counter() - t0)
"""


def measure_setup(h: Harness, workload, seed: int):
    """Median import time of rfod in fresh interpreters plus median input
    generation time, both calibrated; returns (setup_s, inputs)."""
    imports = []
    for _ in range(SETUP_REPEATS):
        before = calib.bare_start(h.env)
        proc, _ = calib.run_child(["-c", _IMPORT_PROBE], h.env)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        factor = calib.BARE_REF_S / ((before + calib.bare_start(h.env)) / 2)
        imports.append(float(proc.stdout.split()[-1]) * factor)
    gens = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        calib.measure()
        c1 = calib.measure()
        t0 = time.perf_counter()
        inputs = workload.generate(seed)
        t = time.perf_counter() - t0
        gens.append(t * calib.REF_S / ((c1 + calib.measure()) / 2))
    return statistics.median(imports) + statistics.median(gens), inputs


def cli_layer_probes(h: Harness) -> dict:
    """Bare interpreter wall time, and `-X importtime` cumulative times of
    rfod and numpy, each the median of CLI_PROBE_REPEATS fresh processes."""
    bare, rfod_s, numpy_s = [], [], []
    for _ in range(CLI_PROBE_REPEATS):
        bare.append(calib.bare_start(h.env))
        proc, _ = calib.run_child(["-X", "importtime", "-c", "import rfod"],
                                  h.env)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1e6
        rfod_s.append(cumulative.get("rfod", 0.0))
        numpy_s.append(cumulative.get("numpy", 0.0))
    return {"cli.interpreter_s": statistics.median(bare),
            "cli.import_rfod_s": statistics.median(rfod_s),
            "cli.import_numpy_s": statistics.median(numpy_s)}


def layer_metrics(h: Harness, traced: list, untraced: list) -> dict:
    """Per-layer metrics: medians over traced rounds of per-round totals."""
    from rfod.calculus.rules import EQUATIONS, RuleId

    def med(key):
        return statistics.median(r["layers"].get(key, 0.0) for r in traced)

    out = {
        "syntax.parser.tokenize_s": med("syntax.parser.tokenize_s"),
        "syntax.parser.tokens": med("tokens"),
        "syntax.parser.parse_sequent_s": med("syntax.parser.parse_sequent_s"),
        "calculus.script.parse_script_self_s":
            med("calculus.script.parse_script_s"),
        "calculus.script.serialize_s": med("calculus.script.serialize_s"),
        "calculus.script.bytes": med("bytes"),
        "syntax.printer.render_sequent_s": med("syntax.printer.render_sequent_s"),
        "calculus.checker.check_self_s": med("calculus.checker.check_s"),
        "calculus.rules.decompose_calls": med("calculus.rules.decompose_calls"),
        "calculus.rules.dualize_s": med("calculus.rules.dualize_s"),
        "syntax.ast.alpha_eq_calls": med("syntax.ast.alpha_eq_calls"),
        "syntax.ast.alpha_eq_s": med("syntax.ast.alpha_eq_s"),
        "syntax.ast.free_vars_calls": med("syntax.ast.free_vars_calls"),
        "syntax.ast.free_vars_s": med("syntax.ast.free_vars_s"),
        "syntax.subst.subst_calls": med("syntax.subst.subst_calls"),
        "syntax.subst.subst_s": med("syntax.subst.subst_s"),
        "theorems.build_s": med("theorems.build_s"),
        "quantum.measure_s": med("quantum.measure_s"),
        "quantum.emit_assertion_s": med("quantum.emit_assertion_s"),
        "quantum.schmidt_s": med("quantum.schmidt_s"),
    }
    eq_steps = sum(med(f"calculus.checker.validate_step.{r.value}_calls")
                   for r in EQUATIONS)
    out["calculus.rules.decompose_per_equation_step"] = (
        out["calculus.rules.decompose_calls"] / eq_steps if eq_steps else 0.0)
    for rule in RuleId:
        base = f"calculus.checker.validate_step.{rule.value}"
        out[f"calculus.checker.validate_step_calls.{rule.value}"] = med(
            base + "_calls")
        out[f"calculus.checker.validate_step_s.{rule.value}"] = med(base + "_s")
    traced_s = statistics.median(r["norm_s"] for r in traced)
    plain_s = statistics.median(r["norm_s"] for r in untraced)
    out["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "calculus.script.bytes":
        return "B"
    if name == "trace.overhead_pct":
        return "%"
    if name.endswith("_per_equation_step"):
        return "1/step"
    return "count"


# ---------------------------------------------------------------------------
# main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rfod" / "__init__.py").is_file():
        print(f"error: no rfod sources under {SRC}; run from the root of an "
              f"rfod checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    sys.pycache_prefix = str(OUT / "pycache")
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    h = Harness(tracer)
    workload = WORKLOADS[args.workload]()

    # warm the bytecode cache that every child interpreter reads
    proc, _ = calib.run_child(["-c", "import rfod, rfod.cli"], h.env,
                              timeout=600)
    if proc.returncode != 0:
        print(f"error: cannot import rfod: {proc.stderr[-500:]}",
              file=sys.stderr)
        return 2
    import rfod  # noqa: F401  (the benchmark's own import, untimed)
    setup_s, inputs = measure_setup(h, workload, args.seed)
    probes = cli_layer_probes(h) if tracer is not None else {}

    # untraced rounds; with --trace 1 the first half of the time is
    # untraced and the second half traced, for the overhead
    t_end = time.perf_counter() + args.seconds
    t_half = time.perf_counter() + args.seconds / 2
    untraced = []
    traced = []
    while True:
        tracing_now = tracer is not None and (
            time.perf_counter() >= t_half and untraced)
        if tracing_now and not traced:
            tracer.install()
        h.start_round()
        workload.round(h, inputs)
        (traced if tracing_now else untraced).append(h.round)
        if time.perf_counter() >= t_end and (tracer is None or traced):
            break
    if tracer is not None:
        tracer.uninstall()

    if tracer is None:
        values = h.metric_values()
        peak_kb = (max(h.child_peak_kb.values(), default=0)
                   if args.workload == "cli_cold" else
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = peak_kb / 1024.0
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        values = layer_metrics(h, traced, untraced)
        values.update(probes)
        for command in ("check", "derive", "translate"):
            values[f"cli.{command}_peak_rss_mb"] = (
                h.child_peak_kb[command] / 1024.0)
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in sorted(values.items())}

    correct = not h.problems
    digest = hashlib.sha256("\n".join(h.verdicts).encode()).hexdigest()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": sys.version.split()[0],
        "median_calibration_factor": statistics.median(
            seg["factor"] for seg in h.segments),
        "rounds": len(h.rounds), "traced_rounds": len(traced),
        "round_raw_s": [r["raw_s"] for r in h.rounds],
        "round_calibrated_s": [r["norm_s"] for r in h.rounds],
        "verdict_digest": digest, "verdicts": len(h.verdicts),
        "problems": h.problems[:50], "errors": h.errors[:50],
        "metrics": metrics,
        "segments": h.segments,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(detail) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    for line in (h.problems + h.errors)[:20]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": h.attempted,
                      "failed": h.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
