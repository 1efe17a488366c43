"""Quick self-test of the benchmark (not part of the Tier-1 suite).

    python3 bench/selftest.py

For every workload it makes one untraced and one traced run with all
output checks on, and requires: a correct result with no failed
operation, exactly the metric names of BENCHMARK.json, positive
end-to-end values, and the same verdicts in both runs.  It also requires
the benchmark to refuse, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark itself.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SECONDS = 1.0
SEED = 7


def run(workload: str, seed: int, seconds: float, trace: int,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            proc = run(workload, SEED, SECONDS, trace)
            tag = f"{workload} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                failures.append(f"{tag}: no result line; "
                                f"stderr {proc.stderr[-500:]}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                failures.append(f"{tag}: exit {proc.returncode}, result "
                                f"{ {k: result[k] for k in ('correct', 'attempted', 'failed')} }; "
                                f"{proc.stderr[-500:]}")
            if set(result["metrics"]) != names[trace]:
                failures.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(result['metrics']) ^ names[trace])}")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items() if v["value"] <= 0]
                if zero:
                    failures.append(f"{tag}: non-positive metrics {zero}")
            detail = json.loads((OUT / f"{workload}-seed{SEED}-trace{trace}"
                                 ".json").read_text())
            digests[trace] = detail["verdict_digest"]
            print(f"{tag}: attempted {result['attempted']}, rounds "
                  f"{detail['rounds']}, verdicts {detail['verdicts']}")
        if len(digests) == 2 and digests[0] != digests[1]:
            failures.append(f"{workload}: traced and untraced verdicts differ")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], SEED, SECONDS, 0, bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, "
                        f"stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)

    for line in failures:
        print(f"FAIL {line}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
