"""Line-oriented proof scripts and their JSON twin.

A script is declarations followed by numbered steps:

    -- optional comments
    domain D = { <t1, 1/2>, <t2, 1/2> } focused
    predicate A/1
    config singleton_axioms on
    step 1 identity :: forall x in D . A(x) |- forall x in D . A(x)
    step 2 eq_forall_r backward var=z from 1 :: forall x in D . A(x), z in D |- A(z)

Every premise reference points to an earlier step.  The JSON export
carries identical content in tree-friendly form.
"""
from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..errors import DslSyntaxError, RfodError
from ..syntax.ast import (
    Domain, DomainTable, Outcome, Sharp, term_prob, term_state,
)
from ..syntax.parser import _Parser, parse_sequent
from ..syntax.printer import (
    render_domain, render_formula, render_sequent, render_term,
)
from .checker import CheckReport, Derivation, TheoryConfig, check
from .rules import RuleId


@dataclass
class ProofScript:
    domains: DomainTable = field(default_factory=DomainTable)
    predicates: dict = field(default_factory=dict)
    config: TheoryConfig = field(default_factory=TheoryConfig)
    steps: list = field(default_factory=list)  # (id, rule, dir, params, refs, sequent)

    def root(self) -> Derivation:
        return script_to_derivation(self)


# ---------------------------------------------------------------------------
# parameter encoding

_INT_PARAMS = {"slot", "index", "member", "body", "position"}
_TERM_PARAMS = {"term"}
_FORMULA_PARAMS = {"cut", "formula"}
_LIST_PARAMS = {"positions"}


def _encode_value(key: str, value) -> str:
    if key in _TERM_PARAMS:
        text = render_term(value)
    elif key in _FORMULA_PARAMS:
        text = render_formula(value)
    elif key in _LIST_PARAMS:
        text = ";".join(str(v) for v in value)
    else:
        text = str(value)
    if any(ch in text for ch in " \t\"'"):
        return '"%s"' % text.replace('"', '\\"')
    return text


def _decode_value(key: str, text: str):
    try:
        if key in _INT_PARAMS:
            return int(text)
        if key in _LIST_PARAMS:
            return [int(v) for v in text.split(";") if v]
    except ValueError:
        raise RfodError(f"parameter {key}={text}: expected "
                        + ("integers" if key in _LIST_PARAMS else "an integer"))
    try:
        if key in _TERM_PARAMS:
            return _parse_fragment(text, "term")
        if key in _FORMULA_PARAMS:
            return _parse_fragment(text, "formula")
    except DslSyntaxError as exc:
        raise RfodError(f"parameter {key}={text}: {exc.message}")
    return text


def _parse_fragment(text: str, kind: str):
    p = _Parser(text)
    node = p.parse_term() if kind == "term" else p.parse_formula()
    if not p.at_end():
        p.fail(f"trailing input in {kind} parameter")
    return node


# ---------------------------------------------------------------------------
# serialization

def serialize_derivation(d: Derivation, domains: Optional[DomainTable] = None,
                         predicates: Optional[dict] = None,
                         config: Optional[TheoryConfig] = None,
                         title: Optional[str] = None) -> str:
    lines = []
    if title:
        lines.append(f"-- {title}")
    if config is not None:
        lines.append("config singleton_axioms "
                     + ("on" if config.singleton_axioms else "off"))
        lines.append("config classical_right_contexts "
                     + ("on" if config.right_contexts_in_forall else "off"))
        focused = set(config.focused_domains)
    else:
        focused = set()
    if domains is not None:
        for dom in domains.domains():
            line = f"domain {render_domain(dom)}"
            if dom.kind != "measured":
                line += f" {dom.kind}"
            if dom.focused or dom.name in focused:
                line += " focused"
            lines.append(line)
    for name in sorted(predicates or {}):
        lines.append(f"predicate {name}/{(predicates or {})[name]}")
    ids: dict = {}
    for node in d.walk():
        ids[id(node)] = len(ids) + 1
        parts = [f"step {ids[id(node)]}", node.rule.value]
        if node.direction:
            parts.append(node.direction)
        for key in sorted(node.params):
            parts.append(f"{key}={_encode_value(key, node.params[key])}")
        if node.premises:
            refs = ",".join(str(ids[id(p)]) for p in node.premises)
            parts.append(f"from {refs}")
        parts.append(f":: {render_sequent(node.conclusion)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def derivation_to_json(d: Derivation, domains: Optional[DomainTable] = None,
                       predicates: Optional[dict] = None,
                       config: Optional[TheoryConfig] = None) -> dict:
    doc: dict = {"steps": []}
    if config is not None:
        doc["config"] = {
            "singleton_axioms": config.singleton_axioms,
            "classical_right_contexts": config.right_contexts_in_forall,
            "focused_domains": sorted(config.focused_domains),
        }
    if domains is not None:
        doc["domains"] = [domain_to_json(dom, dom.name in
                                         (config.focused_domains if config else ()))
                          for dom in domains.domains()]
    if predicates:
        doc["predicates"] = {k: v for k, v in sorted(predicates.items())}
    ids: dict = {}
    for node in d.walk():
        ids[id(node)] = len(ids) + 1
        doc["steps"].append({
            "id": ids[id(node)],
            "rule": node.rule.value,
            "direction": node.direction,
            "params": {k: _encode_value(k, v).strip('"')
                       for k, v in sorted(node.params.items())},
            "premises": [ids[id(p)] for p in node.premises],
            "conclusion": render_sequent(node.conclusion),
        })
    return doc


def domain_to_json(dom: Domain, focused_override: bool = False) -> dict:
    return {
        "name": dom.name,
        "elements": [[term_state(t), term_prob(t).numerator,
                      term_prob(t).denominator] for t in dom.elements],
        "focused": bool(dom.focused or focused_override),
        "kind": dom.kind,
    }


def domain_from_json(doc: dict) -> Domain:
    elements = []
    for label, num, den in doc["elements"]:
        p = Fraction(int(num), int(den))
        elements.append(Sharp(label) if p == 1 else Outcome(label, p))
    return Domain(doc["name"], tuple(elements),
                  focused=bool(doc.get("focused", False)),
                  kind=doc.get("kind", "measured"))


# ---------------------------------------------------------------------------
# parsing

_RULES_BY_NAME = {r.value: r for r in RuleId}
_DIRECTIONS = {"forward", "backward"}


def parse_script(text: str) -> ProofScript:
    script = ProofScript()
    singleton = True
    classical = False
    focused: set = set()
    seen_ids: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("--", 1)[0].strip()
        if not line:
            continue
        indent = len(raw) - len(raw.lstrip())
        try:
            if line.startswith("domain "):
                _parse_domain_decl(line, script, focused)
            elif line.startswith("predicate "):
                name, _, arity = line[len("predicate "):].strip().partition("/")
                try:
                    script.predicates[name.strip()] = int(arity or "1")
                except ValueError:
                    raise RfodError(f"predicate {name.strip()}: arity "
                                    f"{arity.strip()} is not an integer")
            elif line.startswith("config "):
                key, _, value = line[len("config "):].strip().partition(" ")
                flag = value.strip() == "on"
                if key == "singleton_axioms":
                    singleton = flag
                elif key == "classical_right_contexts":
                    classical = flag
                else:
                    raise RfodError(f"unknown config key {key}")
            elif line.startswith("step "):
                _parse_step_line(line, script, seen_ids)
            else:
                raise RfodError(f"unrecognised script line: {line}")
        except DslSyntaxError as exc:
            # a sequent or term inside the line, placed by its own column
            raise DslSyntaxError(exc.message, lineno,
                                 indent + exc.column) from exc
        except RfodError as exc:
            raise DslSyntaxError(str(exc), lineno, indent + 1) from exc
    script.config = TheoryConfig(singleton_axioms=singleton,
                                 focused_domains=frozenset(focused),
                                 right_contexts_in_forall=classical)
    return script


def _parse_domain_decl(line: str, script: ProofScript, focused: set) -> None:
    head, _, tail = line[len("domain "):].partition("=")
    name = head.strip()
    tail = tail.strip()
    if not tail.startswith("{"):
        raise RfodError(f"domain {name}: expected '= {{ ... }}'")
    body, _, supplement = tail[1:].partition("}")
    start = line.index("{") + 1
    try:
        terms = _parse_element_list(body)
    except DslSyntaxError as exc:
        raise DslSyntaxError(exc.message, 1, start + exc.column) from exc
    flags = supplement.split()
    kind = "measured"
    is_focused = False
    for flag in flags:
        if flag == "focused":
            is_focused = True
        elif flag in ("measured", "uniform", "singleton"):
            kind = flag
        else:
            raise RfodError(f"domain {name}: unknown flag {flag}")
    dom = Domain(name, tuple(terms), focused=is_focused, kind=kind)
    script.domains.register(dom)
    if is_focused:
        focused.add(name)


def _parse_element_list(body: str) -> list:
    terms = []
    p = _Parser(body)
    while not p.at_end():
        terms.append(p.parse_term())
        if p.peek().kind == ",":
            p.next()
    return terms


def _parse_step_line(line: str, script: ProofScript, seen_ids: dict) -> None:
    head, sep, conclusion_text = line.partition("::")
    if not sep:
        raise RfodError("step line needs ':: <sequent>'")
    try:
        tokens = shlex.split(head)
    except ValueError as exc:
        raise RfodError(f"step line: {exc}")
    if len(tokens) < 3 or tokens[0] != "step":
        raise RfodError("step line starts 'step <id> <rule>'")
    step_id = tokens[1]
    rule_name = tokens[2]
    rule = _RULES_BY_NAME.get(rule_name)
    if rule is None:
        raise RfodError(f"unknown rule {rule_name}")
    direction = None
    params: dict = {}
    refs: list = []
    rest = tokens[3:]
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok in _DIRECTIONS:
            direction = tok
        elif tok == "from":
            i += 1
            if i >= len(rest):
                raise RfodError("'from' needs premise ids")
            refs = [r for r in rest[i].split(",") if r]
        elif "=" in tok:
            key, _, value = tok.partition("=")
            params[key] = _decode_value(key, value)
        else:
            raise RfodError(f"unexpected token {tok!r} in step line")
        i += 1
    if step_id in seen_ids:
        raise RfodError(f"duplicate step id {step_id}")
    for r in refs:
        if r not in seen_ids:
            raise RfodError(f"step {step_id} references unknown step {r}")
    start = len(line) - len(conclusion_text.lstrip())
    try:
        conclusion = parse_sequent(line[start:])
    except DslSyntaxError as exc:
        raise DslSyntaxError(exc.message, 1, start + exc.column) from exc
    seen_ids[step_id] = True
    script.steps.append((step_id, rule, direction, params, refs, conclusion))


def script_to_derivation(script: ProofScript) -> Derivation:
    if not script.steps:
        raise RfodError("script has no steps")
    nodes: dict = {}
    for step_id, rule, direction, params, refs, conclusion in script.steps:
        premises = tuple(nodes[r] for r in refs)
        nodes[step_id] = Derivation(conclusion, rule, direction, params,
                                    premises)
    last_id = script.steps[-1][0]
    return nodes[last_id]


def check_script(script: ProofScript,
                 cfg: Optional[TheoryConfig] = None) -> CheckReport:
    """Check a parsed script; explicit cfg overrides its config lines."""
    return check(script.root(), cfg or script.config, script.domains)
