"""Which functions of the kernel do the commands, demos and bench never run?

    python3 tools/reach.py              # the working tree
    python3 tools/reach.py <ref>        # a commit, branch or tag

Run from the root of a checkout.  With ``<ref>`` the tree of that commit is
unpacked with ``git archive`` into a temporary directory (under
``$TMPDIR``) and swept there; without it the working tree is swept.  Under
``sys.setprofile``, in this one process, the sweep runs:

- ``rfod derive`` for every target at m = 2, 3 and 8, with and without
  ``--focused D``, once with ``--out`` and once with ``--json``;
- ``rfod check`` of every script so written, as text, with ``--json`` and
  with ``--no-singleton-axioms``;
- ``rfod measure`` and ``rfod translate`` of every one-qubit named state
  in the Z, X and Y bases, ``translate --bipartite`` of the two-qubit
  ones, and one ``measure`` of a state and a basis given as JSON;
- the help text of ``rfod`` and of each command;
- the four demos;
- one ``generate`` and one ``round`` of each workload of ``bench/run.py``
  (their child processes are not followed; the commands above cover them).

Every ``def`` under ``src/rfod`` whose code the sweep never entered is
printed as ``path:line qualified.name``, then the count.  The exit status
is 1 when a command exits otherwise than expected or a bench round reports
a problem (each named on stderr), else 0.
"""
from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from pairs import unpack  # noqa: E402

TARGETS = ("reflection", "lemma1", "prop1", "prop2", "prop3", "collapse",
           "distributivity", "uncertainty")
SIZES = (2, 3, 8)
BASES = ("Z", "X", "Y")
DEMOS = ("01_language_and_substitution", "02_checking_proofs",
         "03_named_results", "04_quantum_bridge")


def defs(src: Path) -> dict:
    """(file, first line of its code, name) -> "path:line qualified.name"
    for every function under ``src/rfod``; a decorated function's code
    starts at its first decorator."""
    found = {}
    for path in sorted((src / "rfod").rglob("*.py")):
        rel = path.relative_to(src.parent)

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    name = prefix + child.name
                    found[(str(path), first, child.name)] = (
                        f"{rel}:{child.lineno} {name}")
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_bytes()), "")
    return found


class Sweep:
    """The commands, demos and bench rounds of one checkout at ``root``."""

    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.faults = []

    def rfod(self, *argv, expect=(0,)) -> None:
        from rfod.cli import main
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        if code not in expect:
            self.faults.append(f"rfod {' '.join(argv)} exited {code}")

    def commands(self) -> None:
        from rfod import quantum
        for target in TARGETS:
            for m in SIZES:
                for focus in ((), ("--focused", "D")):
                    base = ("derive", target, "--m", str(m), *focus)
                    script = self.scratch / f"{target}-{m}-{len(focus)}.txt"
                    # lemma1, prop1 and prop3 refuse a domain not focused
                    exits = (0,) if focus else (0, 1)
                    self.rfod(*base, "--out", str(script), expect=exits)
                    self.rfod(*base, "--json", expect=exits)
                    if not script.exists():
                        continue
                    self.rfod("check", str(script))
                    self.rfod("check", str(script), "--json")
                    # without the singleton axioms a script may be rejected
                    self.rfod("check", str(script), "--no-singleton-axioms",
                              expect=(0, 1))
        for name in quantum.NAMED_STATES:
            two = len(quantum.NAMED_STATES[name]) == 4
            for basis in BASES:
                if not two:
                    self.rfod("measure", "--state", name, "--basis", basis)
                    self.rfod("translate", "--state", name, "--basis", basis)
            if two:
                self.rfod("translate", "--state", name, "--bipartite")
        self.rfod("measure", "--state", "[0.6, 0.8]", "--basis",
                  '{"name": "W", "vectors": [[0.6, 0.8], [0.8, -0.6]], '
                  '"labels": ["w0", "w1"]}')
        for command in (None, "check", "derive", "measure", "translate"):
            self.rfod(*([command] if command else []), "--help")

    def demos(self) -> None:
        for name in DEMOS:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(self.root / "demos" / f"{name}.py"),
                               run_name="__main__")

    def bench(self) -> None:
        spec = importlib.util.spec_from_file_location(
            "bench_run", self.root / "bench" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
        run.OUT.mkdir(exist_ok=True)
        for name, workload in sorted(run.WORKLOADS.items()):
            harness = run.Harness()
            inputs = workload().generate(run.DEFAULT_SEED)
            harness.start_round()
            workload().round(harness, inputs)
            self.faults += [f"bench {name}: {p}"
                            for p in harness.errors + harness.problems]


def sweep(root: Path) -> int:
    src = root.resolve() / "src"
    sys.path.insert(0, str(src))
    functions = defs(src)
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno,
                         code.co_name))

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        job = Sweep(root, Path(tmp))
        sys.setprofile(profile)
        try:
            job.commands()
            job.demos()
            job.bench()
        finally:
            sys.setprofile(None)
    never = [where for key, where in functions.items() if key not in entered]
    for where in never:
        print(where)
    print(f"{len(never)} of {len(functions)} functions never entered")
    for fault in job.faults:
        print(f"fault: {fault}", file=sys.stderr)
    return 1 if job.faults else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("ref", nargs="?",
                    help="sweep this commit instead of the working tree")
    args = ap.parse_args(argv)
    if args.ref is None:
        return sweep(ROOT)
    with tempfile.TemporaryDirectory(prefix="reach-tree-") as tmp:
        unpack(args.ref, Path(tmp))
        return sweep(Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
