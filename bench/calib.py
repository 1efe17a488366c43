"""Calibration: fixed work, independent of rfod, timed next to every
measured segment.

The machine this benchmark was built on is shared: the same rfod pass runs
up to 1.6x slower for tens of seconds while other tenants load it, longer
than a run.  Times are therefore reported in *calibrated seconds*:

- an in-process segment's seconds times ``REF_S / c``, where ``c`` is the
  time of ``kernel`` measured just before and just after the segment;
- a child process's wall time times ``BARE_REF_S / b``, where ``b`` is the
  mean wall time of a bare interpreter (``python -c pass``) started just
  before and just after it.  Process start-up does not follow the kernel,
  but it follows a bare start-up closely.

When the machine runs at its usual speed, ``c`` is close to ``REF_S`` and
``b`` to ``BARE_REF_S``, so calibrated seconds are plain seconds.  The
kernel mirrors what rfod does per step (small nodes, recursive walks,
string rendering, regex tokenizing, dict and set traffic) so that it slows
down with it.
"""
from __future__ import annotations

import gc
import re
import subprocess
import sys
import threading
import time

#: usual times of the kernel and of a bare interpreter start on the
#: machine in README.md; fixed, so that values compare across runs
REF_S = 0.015
BARE_REF_S = 0.085

#: CPython's default collector thresholds
_GC_DEFAULT = (700, 10, 10)

_TOKEN = re.compile(r"\s*(?:(\w+)|(.))")


class _Node:
    __slots__ = ("op", "left", "right", "name")

    def __init__(self, op, left, right, name):
        self.op = op
        self.left = left
        self.right = right
        self.name = name


def _build(depth: int, salt: int) -> _Node:
    if depth == 0:
        return _Node("atom", None, None, f"p{salt % 7}")
    return _Node("and" if depth % 2 else "or", _build(depth - 1, salt * 2),
                 _build(depth - 1, salt * 2 + 1), None)


def _same(a: _Node, b: _Node, env: dict) -> bool:
    if a.op != b.op:
        return False
    if a.op == "atom":
        return env.setdefault(a.name, b.name) == b.name
    return _same(a.left, b.left, env) and _same(a.right, b.right, env)


def _render(n: _Node) -> str:
    if n.op == "atom":
        return f"{n.name}(x)"
    return f"({_render(n.left)} {n.op} {_render(n.right)})"


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    total = 0
    for salt in range(3):
        a = _build(9, salt)
        b = _build(9, salt)
        total += _same(a, b, {})
        text = _render(a)
        seen = set()
        for m in _TOKEN.finditer(text):
            seen.add(m.group(1) or m.group(2))
        total += len(seen) + len(text)
    return total


def measure() -> float:
    """Seconds the kernel takes now.

    The kernel runs with the collector enabled at its default thresholds,
    whatever the caller (or rfod, at import) has set, so that a gc tuning in
    the program speeds up the program and not its yardstick too."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    gc.set_threshold(*_GC_DEFAULT)
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.set_threshold(*thresholds)
        if not enabled:
            gc.disable()


def run_child(args: list, env: dict, cwd=None, timeout: float = 120.0):
    """Run ``python <args>`` to its end; returns (CompletedProcess, wall s).

    The parent blocks in waitpid.  ``subprocess.run(timeout=...)`` would
    poll the child with sleeps of up to 50 ms instead, which adds that much
    jitter to a 0.2 s process; a timer kills a child that hangs."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=cwd,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    guard = threading.Timer(timeout, proc.kill)
    guard.start()
    try:
        out, err = proc.communicate()
    finally:
        guard.cancel()
    wall = time.perf_counter() - t0
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err), wall


def bare_start(env: dict) -> float:
    """Wall seconds of a bare interpreter start now."""
    return run_child(["-c", "pass"], env)[1]
