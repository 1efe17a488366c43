"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public rfod functions with wrappers that
record a span (layer, start, end, parent) per call.  rfod modules bind
names with ``from ... import``, so a wrapper is put wherever a loaded rfod
module holds the original object, which is where its callers look it up.
A layer already open on the stack is not opened again: functions that
recurse through their module-level name (``subst_formula``), and layer
functions that call each other (``alpha_eq_all`` -> ``alpha_eq``), count
once, at the outermost call.

Self time of a span is its duration minus the time of the spans opened
inside it.  Spans stay in memory (up to ``SPAN_CAP``) and are written out
when the run ends.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SPAN_CAP = 100_000

#: (module, function, layer); a layer named ``validate_step`` is split by
#: the rule of the step it validates
TARGETS = [
    ("rfod.syntax.parser", "tokenize", "syntax.parser.tokenize"),
    ("rfod.syntax.parser", "parse_sequent", "syntax.parser.parse_sequent"),
    ("rfod.calculus.script", "parse_script", "calculus.script.parse_script"),
    ("rfod.calculus.script", "serialize_derivation", "calculus.script.serialize"),
    ("rfod.syntax.printer", "render_sequent", "syntax.printer.render_sequent"),
    ("rfod.calculus.checker", "check", "calculus.checker.check"),
    ("rfod.calculus.checker", "validate_step", "validate_step"),
    ("rfod.calculus.rules", "dualize", "calculus.rules.dualize"),
    ("rfod.syntax.ast", "alpha_eq", "syntax.ast.alpha_eq"),
    ("rfod.syntax.ast", "alpha_eq_all", "syntax.ast.alpha_eq"),
    ("rfod.syntax.ast", "free_vars", "syntax.ast.free_vars"),
    ("rfod.syntax.subst", "subst_formula", "syntax.subst.subst"),
    ("rfod.syntax.subst", "subst_sequent", "syntax.subst.subst"),
    ("rfod.syntax.subst", "forgetful_formula", "syntax.subst.subst"),
    ("rfod.quantum", "measure", "quantum.measure"),
    ("rfod.quantum", "emit_assertion", "quantum.emit_assertion"),
    ("rfod.quantum", "schmidt", "quantum.schmidt"),
] + [
    ("rfod.calculus.rules", f"decompose_{kind}", "calculus.rules.decompose")
    for kind in ("forall", "and", "star", "bot", "or", "exists", "equality",
                 "bowtie")
] + [
    ("rfod.theorems", name, "theorems.build")
    for name in ("derive_reflection", "derive_lemma1", "derive_prop1",
                 "derive_prop2", "check_reversibility",
                 "derive_collapse_and_repeat", "derive_distributivity",
                 "build_uncertainty")
]


class Tracer:
    def __init__(self):
        self.stack = []            # open spans: [layer, start, child_s, span_no]
        self.open_layers = defaultdict(int)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.sizes = defaultdict(int)  # tokens, bytes
        self.spans = []
        self.dropped = 0
        self._restore = []
        self.enabled = False       # spans are taken only inside segments

    # -- recording -----------------------------------------------------------
    def _wrap(self, layer: str, fn):
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled or tracer.open_layers[layer]:
                return fn(*args, **kwargs)
            name = layer
            if name == "validate_step":
                rule = args[1] if len(args) > 1 else kwargs["rule"]
                name = "calculus.checker.validate_step." + rule.value
            tracer.open_layers[layer] += 1
            parent = tracer.stack[-1][3] if tracer.stack else -1
            if len(tracer.spans) < SPAN_CAP:
                span_no = len(tracer.spans)
                tracer.spans.append(None)
            else:
                span_no = -1
                tracer.dropped += 1
            frame = [name, 0.0, 0.0, span_no]
            tracer.stack.append(frame)
            start = frame[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                tracer.stack.pop()
                tracer.open_layers[layer] -= 1
                duration = end - start
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][2] += duration
                if span_no >= 0:
                    tracer.spans[span_no] = (name, start, end, parent)
            if layer == "syntax.parser.tokenize":
                tracer.sizes["tokens"] += len(result)
            elif layer == "calculus.script.serialize":
                tracer.sizes["bytes"] += len(result.encode())
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "rfod" or name.startswith("rfod.")]
        for module_name, func_name, layer in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    # -- reading ---------------------------------------------------------------
    def take(self) -> tuple:
        """(self seconds, calls, sizes) recorded since the last take."""
        out = (dict(self.self_s), dict(self.calls), dict(self.sizes))
        self.self_s.clear()
        self.calls.clear()
        self.sizes.clear()
        return out

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                if span is not None:
                    handle.write(json.dumps(span) + "\n")
            if self.dropped:
                handle.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
