"""Which side conditions of the kernel does no test need?

    python3 tools/require_sweep.py              # the committed HEAD
    python3 tools/require_sweep.py <ref>

Run from the root of a checkout.  ``<ref>`` (HEAD by default) is unpacked
with ``git archive`` into a temporary directory (under ``$TMPDIR``); the
working tree is never touched.  In that copy each ``_require(...)`` call of
``calculus/rules.py`` and ``calculus/checker.py`` is replaced in turn by
``None``, so that its condition is neither evaluated nor enforced, and the
Tier-1 suite runs with ``-x``.  A call is killed when the suite fails
(or outruns ``TIMEOUT`` seconds), and it survives when the suite still
passes: then no test notices the check gone.  One line per call goes to
stdout, then the count killed.  The exit status is 1 when a call
survives, and 2 when the suite fails on the unchanged copy.
"""
from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from pairs import unpack  # noqa: E402

FILES = ("src/rfod/calculus/rules.py", "src/rfod/calculus/checker.py")
TIMEOUT = 600  # seconds one suite run may take: a dropped guard may loop


def require_calls(source: bytes) -> list:
    """(line, start, end) of every ``_require(...)`` call in ``source``, as
    byte offsets of the call's whole text."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return sorted(
        (n.lineno, starts[n.lineno - 1] + n.col_offset,
         starts[n.end_lineno - 1] + n.end_col_offset)
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        and n.func.id == "_require")


def suite_passes(checkout: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider"], cwd=checkout, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", nargs="?", default="HEAD",
                    help="the tree to sweep: a commit, branch or tag")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="require-sweep-") as tmp:
        checkout = Path(tmp)
        commit = unpack(args.ref, checkout)
        print(f"sweeping {commit}", flush=True)
        if not suite_passes(checkout):
            print("the suite fails on the unchanged tree", file=sys.stderr)
            return 2
        killed = total = 0
        survivors = []
        for name in FILES:
            path = checkout / name
            source = path.read_bytes()
            for line, start, end in require_calls(source):
                path.write_bytes(source[:start] + b"None" + source[end:])
                total += 1
                if suite_passes(checkout):
                    survivors.append(f"{name}:{line}")
                    print(f"{name}:{line} survives", flush=True)
                else:
                    killed += 1
                    print(f"{name}:{line} killed", flush=True)
            path.write_bytes(source)
    print(f"killed {killed} of {total}")
    for where in survivors:
        print(f"survivor: {where}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
