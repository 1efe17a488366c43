"""Command-line surface: check scripts, emit named derivations, run
measurements, translate states into assertions.

Exit codes: 0 success, 1 logical failure (rejected derivation, violated
precondition), 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .errors import DslSyntaxError, LookupFailure, PreconditionError, RfodError
from .calculus.checker import CheckReport, Derivation, check
from .calculus.rules import FORWARD, RuleId, TheoryConfig
from .calculus.script import (
    check_script, derivation_to_json, domain_to_json, parse_script,
    serialize_derivation,
)
from .syntax.ast import ContextVar, Domain, DomainTable, Outcome, Sharp
from .syntax.parser import parse_sequent
from .syntax.printer import render_domain, render_rational, render_sequent
from . import quantum, theorems

EXIT_OK = 0
EXIT_LOGICAL = 1
EXIT_USAGE = 2

DERIVE_TARGETS = ("reflection", "lemma1", "prop1", "prop2", "prop3",
                  "collapse", "distributivity", "uncertainty")


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError("expected on|off")
    return value == "on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfod",
        description="Proof kernel for sequent calculi over random "
                    "first-order domains, with a quantum backend.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_theory_flags(p):
        p.add_argument("--focused", action="append", default=[],
                       metavar="D", help="declare a domain focused (repeatable)")
        p.add_argument("--singleton-axioms", type=_on_off, default=None,
                       metavar="on|off", help="toggle the singleton axioms "
                       "(default on)")
        p.add_argument("--no-singleton-axioms", action="store_true",
                       help="shorthand for --singleton-axioms off")
        p.add_argument("--classical-right-contexts", type=_on_off,
                       default=None, metavar="on|off",
                       help="allow right contexts in the universal equation "
                       "(default off)")
        p.add_argument("--json", action="store_true", help="machine output")

    p_check = sub.add_parser("check", help="check a proof script")
    p_check.add_argument("file")
    add_theory_flags(p_check)

    p_derive = sub.add_parser("derive", help="emit a named derivation")
    p_derive.add_argument("target", choices=DERIVE_TARGETS)
    p_derive.add_argument("--m", type=int, default=2,
                          help="number of domain elements (default 2)")
    p_derive.add_argument("--n", type=int, default=None,
                          help="second domain size (distributivity)")
    p_derive.add_argument("--i", type=int, default=1,
                          help="1-based outcome index (collapse)")
    p_derive.add_argument("--domain", default="D", help="domain name")
    p_derive.add_argument("--pred", default="A", help="predicate symbol")
    p_derive.add_argument("--gamma", default="G", help="context metavariable")
    p_derive.add_argument("--out", default=None, help="write the script here")
    add_theory_flags(p_derive)

    p_measure = sub.add_parser("measure", help="Born-rule measurement")
    p_measure.add_argument("--state", required=True,
                           help="named state, inline JSON, or @file")
    p_measure.add_argument("--basis", default="Z",
                           help="Z|X|Y, inline JSON, or @file")
    p_measure.add_argument("--json", action="store_true")

    p_translate = sub.add_parser("translate",
                                 help="state to sequent assertion")
    p_translate.add_argument("--state", required=True)
    p_translate.add_argument("--basis", default="Z")
    p_translate.add_argument("--bipartite", action="store_true")
    p_translate.add_argument("--gamma", default="G")
    p_translate.add_argument("--json", action="store_true")

    return parser


def _theory_config(args, base: Optional[TheoryConfig] = None) -> TheoryConfig:
    base = base or TheoryConfig()
    singleton = base.singleton_axioms
    if args.singleton_axioms is not None:
        singleton = args.singleton_axioms
    if args.no_singleton_axioms:
        singleton = False
    classical = base.right_contexts_in_forall
    if args.classical_right_contexts is not None:
        classical = args.classical_right_contexts
    focused = frozenset(base.focused_domains) | frozenset(args.focused)
    return TheoryConfig(singleton_axioms=singleton,
                        focused_domains=focused,
                        right_contexts_in_forall=classical)


def _load_state(spec: str) -> quantum.QState:
    if spec in quantum.NAMED_STATES:
        return quantum.named_state(spec)
    doc = _load_json(spec, "state")
    return quantum.state_from_json(doc)


def _load_basis(spec: str) -> quantum.Basis:
    if spec in quantum.BUILTIN_BASES:
        return quantum.named_basis(spec)
    doc = _load_json(spec, "basis")
    return quantum.basis_from_json(doc)


def _load_json(spec: str, what: str):
    try:
        if spec.startswith("@"):
            with open(spec[1:]) as handle:
                return json.load(handle)
        return json.loads(spec)
    except FileNotFoundError:
        raise LookupFailure(f"{what} file not found: {spec[1:]}")
    except json.JSONDecodeError as exc:
        raise DslSyntaxError(f"bad {what} JSON: {exc}", 1, 1)


def _print_report(report: CheckReport, as_json: bool) -> int:
    if as_json:
        doc = {
            "accepted": report.accepted,
            "steps": [{
                "index": s.index, "rule": s.rule.value,
                "direction": s.direction, "ok": s.ok, "reason": s.reason,
                "conclusion": render_sequent(s.conclusion),
            } for s in report.steps],
            "assumptions": [render_sequent(a) for a in report.assumptions],
            "axioms_used": report.axioms_used,
            "notes": report.notes,
        }
        print(json.dumps(doc, indent=2))
    else:
        for s in report.steps:
            status = "ok" if s.ok else f"FAIL ({s.reason})"
            direction = f" {s.direction}" if s.direction else ""
            print(f"step {s.index} {s.rule.value}{direction} :: "
                  f"{render_sequent(s.conclusion)} .. {status}")
        for a in report.assumptions:
            print(f"assumption :: {render_sequent(a)}")
        for note in report.notes:
            print(f"note: {note}")
        print(report.summary())
    return EXIT_OK if report.accepted else EXIT_LOGICAL


def _cmd_check(args) -> int:
    try:
        with open(args.file) as handle:
            text = handle.read()
    except FileNotFoundError:
        print(f"error: file not found: {args.file}", file=sys.stderr)
        return EXIT_USAGE
    script = parse_script(text)
    cfg = _theory_config(args, script.config)
    report = check_script(script, cfg)
    return _print_report(report, args.json)


def _cmd_derive(args) -> int:
    cfg = _theory_config(args)
    name = args.domain
    pred = args.pred
    table = DomainTable()

    def ctx():
        return (ContextVar(args.gamma),)

    if args.target == "reflection":
        domain = theorems.schematic_domain(name, args.m)
        table.register(domain)
        derivation = theorems.derive_reflection(domain, pred)
        title = "reflection: universal instantiation from identity"
    elif args.target in ("lemma1", "prop1"):
        domain = theorems.schematic_domain(name, args.m)
        table.register(domain)
        if args.target == "lemma1":
            derivation = theorems.derive_lemma1(ctx(), pred, domain, cfg=cfg)
            title = "lemma: conjunction over a focused domain to the universal"
        else:
            derivation = theorems.derive_prop1(pred, domain, cfg=cfg)
            title = "mixed-state formula entails the predicative state"
    elif args.target == "prop2":
        domain = theorems.schematic_domain(name, args.m)
        table.register(domain)
        derivation = theorems.derive_prop2(domain)
        title = "schematic conjunction-to-universal derivability focuses"
    elif args.target == "prop3":
        domain = theorems.schematic_domain(name, args.m)
        table.register(domain)
        verdict = theorems.check_reversibility(domain, cfg, ctx(), pred)
        if not verdict.reversible:
            print(f"NOT REVERSIBLE: substitution over {name} has no inverse "
                  f"generalization; missing {verdict.missing_axiom}")
            return EXIT_LOGICAL
        derivation = verdict.witness
        title = "reversibility witness: instantiate then generalize back"
    elif args.target == "collapse":
        domain = theorems.schematic_domain(name, args.m)
        table.register(domain)
        collapse, repeat = theorems.derive_collapse_and_repeat(
            domain, args.i, pred, cfg=cfg)
        label = domain.labels[args.i - 1]
        table.register(Domain("{" + label + "}", (Sharp(label),),
                              kind="singleton"))
        derivation = repeat
        title = "collapse and repeatability through the sharp-state axiom"
    elif args.target == "distributivity":
        if args.classical_right_contexts is None:
            # the construction needs classical right contexts; default them on
            cfg = TheoryConfig(cfg.singleton_axioms, cfg.focused_domains, True)
        d1 = theorems.schematic_domain(name, args.m)
        d2 = theorems.schematic_domain(name + "'", args.n or args.m)
        table.register(d1)
        table.register(d2)
        nested, split = theorems.derive_distributivity(d1, d2, cfg=cfg,
                                                       gamma=ctx())
        derivation = split
        report1 = check(nested, cfg, table)
        if not report1.accepted:
            print(report1.summary())
            return EXIT_LOGICAL
        title = "star distributes over the universal (classical mode)"
    elif args.target == "uncertainty":
        uy = Domain("DUY", (Outcome("up_y", Fraction(1, 2)),
                            Outcome("down_y", Fraction(1, 2))),
                    kind="uniform")
        table.register(uy)
        base = parse_sequent(f"{args.gamma} |- {pred}^f(#up_z)")
        target = theorems.build_uncertainty(base, uy)
        leaf = Derivation(base, RuleId.HYPOTHESIS)
        derivation = Derivation(target, RuleId.EQ_BOT_R, FORWARD,
                                {"label": "Y"}, (leaf,))
        title = "uncertainty of the incompatible observable as labelled falsum"
    else:  # pragma: no cover
        raise RfodError(f"unknown derive target {args.target}")

    text = serialize_derivation(derivation, table, config=cfg, title=title)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    report = check(derivation, cfg, table)
    if args.json:
        doc = derivation_to_json(derivation, table, config=cfg)
        doc["accepted"] = report.accepted
        print(json.dumps(doc, indent=2))
        return EXIT_OK if report.accepted else EXIT_LOGICAL
    print(text, end="")
    return _print_report(report, False)


def _cmd_measure(args) -> int:
    psi = _load_state(args.state)
    basis = _load_basis(args.basis)
    domain = quantum.measure(psi, basis)
    if args.json:
        print(json.dumps(domain_to_json(domain), indent=2))
    else:
        elems = ", ".join(
            f"({e.state}, {render_rational(e.prob)})" if isinstance(e, Outcome)
            else f"({e.state}, 1)" for e in domain.elements)
        print(f"{domain.name} = {{ {elems} }}  [{domain.kind}]")
    return EXIT_OK


def _cmd_translate(args) -> int:
    psi = _load_state(args.state)
    table = DomainTable()
    basis = _load_basis(args.basis)
    sequent = quantum.emit_assertion(psi, basis, bipartite=args.bipartite,
                                     gamma=args.gamma, table=table)
    if args.json:
        doc = {
            "sequent": render_sequent(sequent),
            "domains": [domain_to_json(d) for d in table.domains()],
        }
        print(json.dumps(doc, indent=2))
    else:
        for d in table.domains():
            focused = " focused" if d.focused else ""
            print(f"domain {render_domain(d)} {d.kind}{focused}")
        print(render_sequent(sequent))
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "derive":
            return _cmd_derive(args)
        if args.command == "measure":
            return _cmd_measure(args)
        if args.command == "translate":
            return _cmd_translate(args)
        parser.error(f"unknown command {args.command}")
    except (DslSyntaxError, LookupFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, RfodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOGICAL
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
