"""Alternating parent/change runs of the benchmark, summarised per metric.

    python3 tools/pairs.py <parent-ref> --pr <n>      # 5 pairs of run_seconds
    python3 tools/pairs.py HEAD --pr 0 --pairs 2 --seconds 5    # a smoke test

Run from the root of a checkout.  ``<parent-ref>`` is unpacked with ``git
archive`` into a temporary directory (under ``$TMPDIR``); the working tree,
uncommitted changes included, is the change.  For every workload of
BENCHMARK.json the benchmark command runs once on each side per pair, both
with the benchmark's default seed and with ``run_seconds`` (or
``--seconds``), and the side that runs first alternates from pair to pair.
The summary, written to ``BENCH_<n>.json`` at the root of the checkout
(its path printed on stdout, a line per metric on stderr), holds for
every workload and end-to-end metric the medians and quartiles
of both sides, the pairs the change wins, whether its median is worse than
the metric's bound, each side's failed operations, and whether the
verdict digests that each run leaves in ``.bench_out/`` are equal in
every pair.  The exit status is 1 when, on any workload, the digests
differ in a pair, either side failed an operation or a run was incorrect.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the default seed of bench/run.py


def unpack(ref: str, into: Path) -> str:
    """Unpack the tree of ``ref`` into ``into``; return its commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return commit


def run_once(checkout: Path, command: list, workload: str,
             seconds: float) -> dict:
    """One benchmark run: its result line plus the verdict digest."""
    argv = [*command, "--workload", workload, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    if argv[0] == "python3":
        argv[0] = sys.executable
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} printed no result "
                         f"(exit {proc.returncode}): {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    detail = checkout / ".bench_out" / f"{workload}-seed{SEED}-trace0.json"
    result["digest"] = json.loads(detail.read_text())["verdict_digest"]
    return result


def spread(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def summarise(spec: dict, runs: dict) -> dict:
    """Per metric figures of one workload from its runs, by side."""
    parent, change = runs["parent"], runs["change"]
    out = {
        "digests_equal": all(p["digest"] == c["digest"]
                             for p, c in zip(parent, change)),
        "failed": {side: sum(r["failed"] for r in rs)
                   for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs)
                      for side, rs in runs.items()},
        "correct": {side: all(r["correct"] for r in rs)
                    for side, rs in runs.items()},
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        name = metric["name"]
        higher = metric["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        pm, cm = statistics.median(p), statistics.median(c)
        worse = cm < pm * (1 - metric["bound"]) if higher else \
            cm > pm * (1 + metric["bound"])
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"],
            "parent": spread(p), "change": spread(c),
            "change_wins": sum((b > a) if higher else (b < a)
                               for a, b in zip(p, c)),
            "median_change_pct": 100.0 * (cm / pm - 1) if pm else None,
            "worse_than_bound": worse,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", help="the parent: a commit, branch or tag")
    ap.add_argument("--pr", type=int, required=True,
                    help="the n of the output name BENCH_<n>.json")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds)")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    doc = {"ref": args.ref, "pairs": args.pairs, "seconds": seconds,
           "seed": SEED, "python": platform.python_version(),
           "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
           "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="rfod-pairs-") as tmp:
        parent = Path(tmp)
        doc["parent_commit"] = unpack(args.ref, parent)
        sides = {"parent": parent, "change": ROOT}
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else \
                    ("change", "parent")
                for side in order:
                    runs[side].append(run_once(sides[side], spec["command"],
                                               workload, seconds))
                print(f"{workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr)
            doc["workloads"][workload] = summarise(spec, runs)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    for line in summary_lines(doc):
        print(line, file=sys.stderr)
    faults = [f"{name}: {fault}" for name, w in doc["workloads"].items()
              for fault in faults_of(w)]
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


def summary_lines(doc: dict):
    """One line per workload and end-to-end metric: both medians, the
    change in %, the pairs the change wins, and WORSE past the bound."""
    for name, workload in doc["workloads"].items():
        for metric, m in workload["metrics"].items():
            pct = m["median_change_pct"]
            yield (f"{name} {metric}: {m['parent']['median']:.6g} -> "
                   f"{m['change']['median']:.6g} {m['unit']} "
                   f"({'n/a' if pct is None else f'{pct:+.1f}%'}), "
                   f"wins {m['change_wins']}/{doc['pairs']}"
                   + (" WORSE" if m["worse_than_bound"] else ""))


def faults_of(workload: dict) -> list:
    """What makes the pairs of one workload unusable as a comparison."""
    faults = [] if workload["digests_equal"] else ["verdict digests differ"]
    for side in ("parent", "change"):
        if workload["failed"][side]:
            faults.append(f"{workload['failed'][side]} failed operations "
                          f"on the {side} side")
        if not workload["correct"][side]:
            faults.append(f"an incorrect run on the {side} side")
    return faults


if __name__ == "__main__":
    sys.exit(main())
