"""Command-line surface: check scripts, emit named derivations, run
measurements, translate states into assertions.

    rfod -h | rfod COMMAND [ARG] [OPTION ...]

COMMAND is ``check FILE``, ``derive TARGET``, ``measure`` or ``translate``.
One table, ``COMMANDS``, lists each command's options; it reads the command
line and writes the ``-h``/``--help`` text.  Options and the argument come
in any order.  ``--opt value`` and ``--opt=value`` are the same; a value
starting with ``-`` must be a negative number.  An option may be cut to a
prefix no other option of its command shares, ``--focused`` may repeat, and
``--`` ends the options.

Exit codes: 0 success (help included), 1 logical failure (rejected
derivation, violated precondition), 2 usage or parse error.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional

from .errors import DslSyntaxError, LookupFailure, PreconditionError, RfodError
from .calculus.checker import CheckReport, Derivation, check
from .calculus.rules import FORWARD, RuleId, TheoryConfig
from .calculus.script import (
    check_script, derivation_to_json, domain_to_json, parse_script,
    serialize_derivation,
)
from .syntax.ast import (
    ContextVar, Domain, DomainTable, Outcome, Sharp, term_prob,
)
from .syntax.parser import name_fault, parse_sequent
from .syntax.printer import render_domain, render_rational, render_sequent
from . import quantum

EXIT_OK = 0
EXIT_LOGICAL = 1
EXIT_USAGE = 2

DERIVE_TARGETS = ("reflection", "lemma1", "prop1", "prop2", "prop3",
                  "collapse", "distributivity", "uncertainty")


class _Usage(Exception):
    """A command line the table does not read: (command or None, reason)."""


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise ValueError("expected on|off")
    return value == "on"


def _name(value: str) -> str:
    """An argument that names a domain, predicate or context: the script
    that names it must read back."""
    fault = name_fault(value)
    if fault:
        raise ValueError(f"name {value!r} {fault}")
    return value


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid int value: {value!r}") from None


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
    return quantum.state_from_json(_load_json(spec, "state"))


def _load_basis(spec: str) -> quantum.Basis:
    if spec in quantum.BUILTIN_BASES:
        return quantum.named_basis(spec)
    return quantum.basis_from_json(_load_json(spec, "basis"))


def _load_json(spec: str, what: str):
    import json
    text = _read(spec[1:]) if spec.startswith("@") else spec
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DslSyntaxError(f"bad {what} JSON: {exc}", 1, 1)


def _print_json(doc) -> None:
    import json
    print(json.dumps(doc, indent=2))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise LookupFailure(f"cannot read {path}: {reason}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise LookupFailure(f"cannot write {path}: {exc.strerror or exc}")


def _print_report(report: CheckReport, as_json: bool) -> int:
    memo: dict = {}
    if as_json:
        doc = {
            "accepted": report.accepted,
            "steps": [{
                "index": s.index, "rule": s.rule.value,
                "direction": s.direction, "ok": s.ok, "reason": s.reason,
                "conclusion": render_sequent(s.conclusion, memo),
            } for s in report.steps],
            "assumptions": [render_sequent(a, memo)
                            for a in report.assumptions],
            "closed": not report.assumptions,
            "axioms_used": report.axioms_used,
            "notes": report.notes,
        }
        _print_json(doc)
    else:
        for s in report.steps:
            status = "ok" if s.ok else f"FAIL ({s.reason})"
            direction = f" {s.direction}" if s.direction else ""
            print(f"step {s.index} {s.rule.value}{direction} :: "
                  f"{render_sequent(s.conclusion, memo)} .. {status}")
        for a in report.assumptions:
            print(f"assumption :: {render_sequent(a, memo)}")
        for note in report.notes:
            print(f"note: {note}")
        print(report.summary())
    return EXIT_OK if report.accepted else EXIT_LOGICAL


def _cmd_check(args) -> int:
    script = parse_script(_read(args.file))
    cfg = _theory_config(args, script.config)
    report = check_script(script, cfg)
    return _print_report(report, args.json)


def _cmd_derive(args) -> int:
    from . import theorems
    cfg = _theory_config(args)
    name = args.domain
    pred = args.pred
    table = DomainTable()

    gamma = (ContextVar(args.gamma),)
    if args.target != "uncertainty":
        domain = theorems.schematic_domain(name, args.m)
        table.register(domain)
    if args.target == "reflection":
        derivation = theorems.derive_reflection(domain, pred)
        title = "reflection: universal instantiation from identity"
    elif args.target == "lemma1":
        derivation = theorems.derive_lemma1(gamma, pred, domain, cfg=cfg)
        title = "lemma: conjunction over a focused domain to the universal"
    elif args.target == "prop1":
        derivation = theorems.derive_prop1(pred, domain, cfg=cfg)
        title = "mixed-state formula entails the predicative state"
    elif args.target == "prop2":
        derivation = theorems.derive_prop2(domain)
        title = "schematic conjunction-to-universal derivability focuses"
    elif args.target == "prop3":
        verdict = theorems.check_reversibility(domain, cfg, gamma, pred)
        if not verdict.reversible:
            print(f"NOT REVERSIBLE: substitution over {name} has no inverse "
                  f"generalization; missing {verdict.missing_axiom}")
            return EXIT_LOGICAL
        derivation = verdict.witness
        title = "reversibility witness: instantiate then generalize back"
    elif args.target == "collapse":
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
        n = args.m if args.n is None else args.n
        other = theorems.schematic_domain(name + "'", n)
        table.register(other)
        nested, split = theorems.derive_distributivity(domain, other, pred,
                                                       cfg=cfg, gamma=gamma)
        derivation = split
        report1 = check(nested, cfg, table)
        if not report1.accepted:
            print(report1.summary())
            return EXIT_LOGICAL
        title = "star distributes over the universal (classical mode)"
    else:  # uncertainty
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

    text = serialize_derivation(derivation, table, config=cfg, title=title)
    if args.out:
        _write(args.out, text)
    report = check(derivation, cfg, table)
    if args.json:
        doc = derivation_to_json(derivation, table, config=cfg)
        doc["accepted"] = report.accepted
        doc["closed"] = not report.assumptions
        _print_json(doc)
        return EXIT_OK if report.accepted else EXIT_LOGICAL
    print(text, end="")
    return _print_report(report, False)


def _cmd_measure(args) -> int:
    psi = _load_state(args.state)
    basis = _load_basis(args.basis)
    domain = quantum.measure(psi, basis)
    if args.json:
        _print_json(domain_to_json(domain))
    else:
        elems = ", ".join(f"({e.state}, {render_rational(term_prob(e))})"
                          for e in domain.elements)
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
        _print_json(doc)
    else:
        for d in table.domains():
            focused = " focused" if d.focused else ""
            print(f"domain {render_domain(d)} {d.kind}{focused}")
        print(render_sequent(sequent))
    return EXIT_OK


# ---------------------------------------------------------------------------
# the argument table

_DESCRIPTION = ("Proof kernel for sequent calculi over random first-order "
                "domains,\nwith a quantum backend.")

#: the default of an option that every command line must give
_REQUIRED = object()

# An option is (reader, default, help).  A reader of None makes a flag,
# False until given; a list default makes the option repeatable, each
# value appended to a copy of the list.
_THEORY_OPTIONS = {
    "--focused": (_name, [], "declare a domain focused (repeatable)"),
    "--singleton-axioms": (_on_off, None, "the singleton axioms (default on)"),
    "--no-singleton-axioms": (None, False, "same as --singleton-axioms off"),
    "--classical-right-contexts": (_on_off, None, "right contexts in the "
                                   "universal equation (default off)"),
    "--json": (None, False, "machine output"),
}
_STATE_OPTIONS = {
    "--state": (str, _REQUIRED, "named state, inline JSON, or @file"),
    "--basis": (str, "Z", "Z|X|Y, inline JSON, or @file"),
}
_GAMMA = (_name, "G", "context metavariable")

#: command -> (handler, help, positional argument or None, the values it
#: may take or None for any, options)
COMMANDS = {
    "check": (_cmd_check, "check a proof script", "file", None,
              _THEORY_OPTIONS),
    "derive": (_cmd_derive, "emit a named derivation", "target",
               DERIVE_TARGETS, {
                   "--m": (_int, 2, "number of domain elements (default 2)"),
                   "--n": (_int, None, "second domain size (distributivity)"),
                   "--i": (_int, 1, "1-based outcome index (collapse)"),
                   "--domain": (_name, "D", "domain name"),
                   "--pred": (_name, "A", "predicate symbol"),
                   "--gamma": _GAMMA,
                   "--out": (str, None, "write the script here"),
                   **_THEORY_OPTIONS}),
    "measure": (_cmd_measure, "Born-rule measurement", None, None,
                {**_STATE_OPTIONS, "--json": _THEORY_OPTIONS["--json"]}),
    "translate": (_cmd_translate, "state to sequent assertion", None, None, {
        **_STATE_OPTIONS,
        "--bipartite": (None, False, "a two-qubit state, in Schmidt form"),
        "--gamma": _GAMMA,
        "--json": _THEORY_OPTIONS["--json"]}),
}

# argparse's rule: a negative number is a value, not an option
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _is_option(arg: str) -> bool:
    return arg.startswith("-") and arg != "-" and not _NEGATIVE.match(arg)


def _split(command: str, arg: str, options: dict) -> tuple:
    """(option, value after ``=`` or None) of the option argument ``arg``,
    whose name may be a prefix of one option's."""
    flag, eq, value = arg.partition("=")
    if flag == "-h":
        flag = "--help"
    if flag not in options and flag != "--help":
        spelt = [o for o in (*options, "--help") if o.startswith(flag)]
        if not flag.startswith("--") or not spelt:
            raise _Usage(command, f"unrecognized arguments: {arg}")
        if len(spelt) > 1:
            raise _Usage(command, f"ambiguous option: {flag} could match "
                                  f"{', '.join(spelt)}")
        flag = spelt[0]
    return flag, (value if eq else None)


def _parse(argv: list):
    """(handler, arguments) of the command line ``argv``, or None when it
    asks for help, which is then printed.  Raises ``_Usage``."""
    if argv[:1] in (["-h"], ["--help"]):
        print(_help(None))
        return None
    if not argv:
        raise _Usage(None, "the following arguments are required: command")
    command, rest = argv[0], iter(argv[1:])
    if command not in COMMANDS:
        raise _Usage(None, f"argument command: invalid choice: {command!r} "
                           f"(choose from {', '.join(map(repr, COMMANDS))})")
    handler, _, positional, choices, options = COMMANDS[command]
    values = {_dest(flag): list(default) if isinstance(default, list)
              else default for flag, (_, default, _) in options.items()}
    free = []
    for arg in rest:
        if arg == "--":
            free.extend(rest)
            break
        if not _is_option(arg):
            free.append(arg)
            continue
        flag, value = _split(command, arg, options)
        if flag == "--help":
            print(_help(command))
            return None
        reader, default, _ = options[flag]
        dest = _dest(flag)
        if reader is None:
            if value is not None:
                raise _Usage(command, f"argument {flag}: ignored explicit "
                                      f"argument {value!r}")
            values[dest] = True
            continue
        if value is None:
            value = next(rest, None)
            if value is None or _is_option(value):
                raise _Usage(command, f"argument {flag}: expected one argument")
        try:
            value = reader(value)
        except ValueError as exc:
            raise _Usage(command, f"argument {flag}: {exc}") from None
        if isinstance(default, list):
            values[dest].append(value)
        else:
            values[dest] = value
    missing = [positional] if positional and not free else []
    missing += [flag for flag in options if values[_dest(flag)] is _REQUIRED]
    if missing:
        raise _Usage(command, "the following arguments are required: "
                              + ", ".join(missing))
    if positional:
        value = values[positional] = free.pop(0)
        if choices and value not in choices:
            raise _Usage(command, f"argument {positional}: invalid choice: "
                                  f"{value!r} (choose from "
                                  f"{', '.join(map(repr, choices))})")
    if free:
        raise _Usage(command, f"unrecognized arguments: {' '.join(free)}")
    return handler, SimpleNamespace(command=command, **values)


def _spelling(flag: str, reader) -> str:
    if reader is None:
        return flag
    return f"{flag} {'on|off' if reader is _on_off else _dest(flag).upper()}"


def _usage(command: Optional[str]) -> str:
    if command is None:
        return f"usage: rfod [-h] {{{','.join(COMMANDS)}}} ..."
    _, _, positional, choices, options = COMMANDS[command]
    lines = [f"usage: rfod {command} [-h]"]
    words = []
    if positional:
        words.append(f"{{{','.join(choices)}}}" if choices else positional)
    for flag, (reader, default, _) in options.items():
        word = _spelling(flag, reader)
        words.append(word if default is _REQUIRED else f"[{word}]")
    for word in words:
        if len(lines[-1]) + len(word) >= 79:
            lines.append(" " * len(f"usage: rfod {command}"))
        lines[-1] += " " + word
    return "\n".join(lines)


def _help(command: Optional[str]) -> str:
    if command is None:
        about, heading = _DESCRIPTION, "commands"
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        _, about, _, _, options = COMMANDS[command]
        heading = "options"
        rows = [("-h, --help", "show this help and exit")] + [
            (_spelling(flag, reader), text)
            for flag, (reader, _, text) in options.items()]
    width = max(len(left) for left, _ in rows) + 2
    lines = [_usage(command), "", about, "", f"{heading}:",
             *(f"  {left:<{width}}{text}" for left, text in rows)]
    if command is None:
        lines += ["", *map(_usage, COMMANDS)]
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Usage as exc:
        command, reason = exc.args
        prog = "rfod" if command is None else f"rfod {command}"
        print(f"{_usage(command)}\n{prog}: error: {reason}", file=sys.stderr)
        return EXIT_USAGE
    if parsed is None:
        return EXIT_OK
    handler, args = parsed
    try:
        return handler(args)
    except (DslSyntaxError, LookupFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, RfodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LOGICAL


if __name__ == "__main__":
    sys.exit(main())
