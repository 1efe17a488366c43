"""Line-oriented proof scripts and their JSON twin.

A script is declarations followed by numbered steps:

    -- optional comments
    domain D = { <t1, 1/2>, <t2, 1/2> } focused
    predicate A/1
    config singleton_axioms on
    step 1 identity :: forall x in D . A(x) |- forall x in D . A(x)
    step 2 eq_forall_r backward var=z from 1 :: forall x in D . A(x), z in D |- A(z)

Each line is read by the sequent DSL's tokenizer and one parser over its
tokens, so every error carries its real line and column:

    line  := "domain" DOM "=" "{" [term ("," term)*] "}" FLAG*
           | "predicate" IDENT ["/" INT] | "config" KEY ("on" | "off")
           | "step" ID RULE DIRECTION? (KEY "=" value | "from" ID ("," ID)*)*
             "::" sequent
    value := V | '"' V '"'   (V by the key: INT (";" INT)*, term, formula, DOM)

A comment runs from ``--`` to the end of the line, wherever it starts.
``'`` is an identifier character (``x'``) and quotes nothing.  Every
premise reference points to an earlier step, and every step leads to the
last one.  The JSON export carries the same content as a tree.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import DslSyntaxError, RfodError
from ..syntax.ast import Domain, DomainTable, term_prob, term_state
from ..syntax.parser import _Parser, _shown
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
# parameters and config keys

def _integer(p: _Parser, owner: str) -> int:
    tok = p.next()
    if tok.kind != "rational" or not tok.text.isdigit():
        p.fail(f"{owner}: expected an integer, found {_shown(tok)!r}", tok)
    return int(tok.text)


def _integers(p: _Parser, owner: str) -> list:
    values = [_integer(p, owner)]
    while p.accept(";"):
        values.append(_integer(p, owner))
    return values


#: parameter key -> (read its value off a step line, the value's text);
#: any other key holds a name: a variable, label, state or domain name
_NAME = (lambda p, owner: p.parse_domain_ref(), str)
_PARAMS = {
    **dict.fromkeys(("slot", "index", "member", "body", "position"),
                    (_integer, str)),
    "positions": (_integers, lambda v: ";".join(map(str, v))),
    "term": (lambda p, owner: p.parse_term(), render_term),
    **dict.fromkeys(("cut", "formula"),
                    (lambda p, owner: p.parse_formula(), render_formula)),
}

#: script config key -> the TheoryConfig field it sets
_CONFIG_KEYS = {"singleton_axioms": "singleton_axioms",
                "classical_right_contexts": "right_contexts_in_forall"}


def _numbered(d: Derivation):
    """(id, step, premise ids, parameter texts) of every step of ``d``,
    premises first, shared steps once."""
    ids: dict = {}
    for node in d.walk():
        ids[node] = len(ids) + 1
        yield (ids[node], node, [ids[p] for p in node.premises],
               {k: _PARAMS.get(k, _NAME)[1](v)
                for k, v in sorted(node.params.items())})


# ---------------------------------------------------------------------------
# serialization

def serialize_derivation(d: Derivation, domains: Optional[DomainTable] = None,
                         predicates: Optional[dict] = None,
                         config: Optional[TheoryConfig] = None,
                         title: Optional[str] = None) -> str:
    lines = []
    if title:
        lines.append(f"-- {title}")
    focused = config.focused_domains if config is not None else ()
    if config is not None:
        lines += [f"config {key} {'on' if getattr(config, name) else 'off'}"
                  for key, name in _CONFIG_KEYS.items()]
    for dom in domains.domains() if domains is not None else ():
        line = f"domain {render_domain(dom)}"
        if dom.kind != "measured":
            line += f" {dom.kind}"
        if dom.focused or dom.name in focused:
            line += " focused"
        lines.append(line)
    for name in sorted(predicates or {}):
        lines.append(f"predicate {name}/{(predicates or {})[name]}")
    for n, node, refs, params in _numbered(d):
        parts = [f"step {n}", node.rule.value]
        if node.direction:
            parts.append(node.direction)
        for key, text in params.items():
            if any(ch in text for ch in " \t\"'"):
                text = '"%s"' % text.replace('"', '\\"')
            parts.append(f"{key}={text}")
        if refs:
            parts.append(f"from {','.join(map(str, refs))}")
        parts.append(f":: {render_sequent(node.conclusion)}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def derivation_to_json(d: Derivation, domains: Optional[DomainTable] = None,
                       predicates: Optional[dict] = None,
                       config: Optional[TheoryConfig] = None) -> dict:
    doc: dict = {"steps": []}
    if config is not None:
        doc["config"] = {key: getattr(config, name)
                         for key, name in _CONFIG_KEYS.items()}
        doc["config"]["focused_domains"] = sorted(config.focused_domains)
    if domains is not None:
        doc["domains"] = [domain_to_json(dom, dom.name in
                                         (config.focused_domains if config else ()))
                          for dom in domains.domains()]
    if predicates:
        doc["predicates"] = {k: v for k, v in sorted(predicates.items())}
    for n, node, refs, params in _numbered(d):
        doc["steps"].append({
            "id": n,
            "rule": node.rule.value,
            "direction": node.direction,
            "params": params,
            "premises": refs,
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


# ---------------------------------------------------------------------------
# parsing

_RULES_BY_NAME = {r.value: r for r in RuleId}
_DIRECTIONS = {"forward", "backward"}


def parse_script(text: str) -> ProofScript:
    script = ProofScript()
    flags: dict = {}  # TheoryConfig field -> value, from config lines
    seen_ids: dict = {}
    memo: dict = {}  # every line reads a repeated text as the same node
    for lineno, raw in enumerate(text.splitlines(), start=1):
        p = _Parser(raw, lineno, memo)
        first = p.next()
        if first.kind == "eof":
            continue
        try:
            if first.text == "domain":
                _parse_domain_decl(p, script)
            elif first.text == "predicate":
                name = p.expect("ident").text
                script.predicates[name] = (_integer(p, f"predicate {name}")
                                           if p.accept("/") else 1)
                p.finish()
            elif first.text == "config":
                key = p.next().text
                if key not in _CONFIG_KEYS:
                    raise RfodError(f"unknown config key {key}")
                p.drain()
                value = " ".join(tok.text for tok in p.tokens[p.i:-1])
                if value not in ("on", "off"):
                    raise RfodError(f"config {key}: expected 'on' or 'off', "
                                    f"found {value!r}")
                flags[_CONFIG_KEYS[key]] = value == "on"
            elif first.text == "step":
                _parse_step_line(p, script, seen_ids)
                seen_ids[script.steps[-1][0]] = (lineno, first.column)
            else:
                raise RfodError("unrecognised script line starting "
                                f"{_shown(first)!r}")
        except RfodError as exc:
            p.drain()  # a bad character on the line is reported first
            if isinstance(exc, DslSyntaxError):
                raise
            # an error of the line as a whole: a declaration it breaks or
            # a step it cannot place
            raise DslSyntaxError(str(exc), lineno, first.column) from exc
    # every step must lead to the last one, which alone is checked as a tree
    used = {step[0] for step in script.steps[-1:]}
    for step_id, _, _, _, refs, _ in reversed(script.steps):
        if step_id not in used:
            raise DslSyntaxError(f"step {step_id} is not used by the last "
                                 f"step", *seen_ids[step_id])
        used.update(refs)
    script.config = TheoryConfig(
        focused_domains=frozenset(dom.name for dom in script.domains.domains()
                                  if dom.focused), **flags)
    return script


def _parse_domain_decl(p: _Parser, script: ProofScript) -> None:
    name = p.parse_domain_ref()
    if not (p.accept("=") and p.accept("{")):
        raise RfodError(f"domain {name}: expected '= {{ ... }}'")
    terms = []
    while not p.accept("}"):
        if terms:
            p.expect(",")
        terms.append(p.parse_term())
    kind, is_focused = "measured", False
    while not p.at_end():
        flag = p.next().text
        if flag == "focused":
            is_focused = True
        elif flag in ("measured", "uniform", "singleton"):
            kind = flag
        else:
            raise RfodError(f"domain {name}: unknown flag {flag}")
    script.domains.register(Domain(name, tuple(terms), focused=is_focused,
                                   kind=kind))


_STEP_ID = ("rational", "ident")


def _parse_step_line(p: _Parser, script: ProofScript, seen_ids: dict) -> None:
    if not p.lex_to("::"):
        raise RfodError("step line needs ':: <sequent>'")
    step_id, rule_name = p.next(), p.next()
    if step_id.kind not in _STEP_ID or rule_name.kind != "ident":
        raise RfodError("step line starts 'step <id> <rule>'")
    step_id = step_id.text
    rule = _RULES_BY_NAME.get(rule_name.text)
    if rule is None:
        raise RfodError(f"unknown rule {rule_name.text}")
    direction = None
    params: dict = {}
    refs: list = []
    while True:
        tok = p.next()
        if tok.kind == "::":
            break
        if tok.kind == "ident" and tok.text in _DIRECTIONS:
            direction = tok.text
        elif tok.kind == "ident" and tok.text == "from":
            while p.peek().kind in _STEP_ID:
                refs.append(p.next().text)
                if not p.accept(","):
                    break
            if not refs:
                raise RfodError("'from' needs premise ids")
        elif tok.kind == "ident" and p.accept("="):
            quoted = p.accept('"')
            params[tok.text] = _PARAMS.get(tok.text, _NAME)[0](
                p, f"parameter {tok.text}")
            if quoted:
                p.expect('"')
        else:
            p.fail(f"unexpected token {_shown(tok)!r} in step line", tok)
    if step_id in seen_ids:
        raise RfodError(f"duplicate step id {step_id}")
    for r in refs:
        if r not in seen_ids:
            raise RfodError(f"step {step_id} references unknown step {r}")
    conclusion = p.parse_sequent()
    p.finish()
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
