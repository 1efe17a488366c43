"""Line-oriented proof scripts and their JSON twin.

A script is declarations followed by numbered steps:

    -- optional comments
    domain D = { <t1, 1/2>, <t2, 1/2> } focused
    predicate A/1
    config singleton_axioms on
    step 1 identity :: forall x in D . A(x) |- forall x in D . A(x)
    step 2 eq_forall_r backward var=z from 1 :: forall x in D . A(x), z in D |- A(z)

A step header is matched by patterns, its start and then an item at a
time.  The sequent DSL's parser starts only where a value they do not hold
or the conclusion starts, so every error carries its real line and column:

    line  := "domain" DOM "=" "{" [term ("," term)*] "}" FLAG*
           | "predicate" IDENT ["/" INT] | "config" KEY ("on" | "off")
           | "step" ID RULE DIRECTION? (KEY "=" value | "from" ID ("," ID)*)*
             "::" sequent
    value := V | '"' V '"'   (V by the key: INT, term, formula, DOM)
    ID    := INT | RATIONAL ("1/2", ".5") | WORD (an identifier, no keyword)

A comment runs from ``--`` to the end of the line, wherever it starts.
``'`` is an identifier character (``x'``) and quotes nothing.  A step
repeats no KEY or direction, refers only to earlier steps, and leads to
the last one.  The JSON export carries the same content as a tree.
"""
from __future__ import annotations

import re
from functools import lru_cache
from typing import Optional

from ..errors import DslSyntaxError, LookupFailure, RfodError, RuleError
from ..syntax.ast import (
    DOMAIN_KINDS, Domain, DomainTable, _Record, is_singleton_literal,
    sharp_pred_name, term_prob, term_state,
)
from ..syntax.parser import (
    _WORD, _Parser, _lexemes, _shown, _validate_names, name_fault,
)
from ..syntax.printer import render, render_domain, render_sequent
from .checker import CheckReport, Derivation, TheoryConfig, check
from .rules import _PARAM_KINDS, RuleId


class ProofScript(_Record):
    __slots__ = ("domains", "predicates", "config", "steps")

    def __init__(self, domains: Optional[DomainTable] = None,
                 predicates: Optional[dict] = None,
                 config: Optional[TheoryConfig] = None,
                 steps: Optional[list] = None):
        self.domains = DomainTable() if domains is None else domains
        self.predicates = {} if predicates is None else predicates
        self.config = TheoryConfig() if config is None else config
        # (id, rule, dir, params, refs, sequent) per step
        self.steps = [] if steps is None else steps

    def root(self) -> Derivation:
        return script_to_derivation(self)


# ---------------------------------------------------------------------------
# parameters and config keys

def _integer(p: _Parser, owner: str) -> int:
    tok = p.next()
    if tok.kind != "rational" or not tok.text.isdigit():
        p.fail(f"{owner}: expected an integer, found {_shown(tok)!r}", tok)
    return int(tok.text)


#: value kind -> (read a value off a step line, its text given the
#: script's render memo)
_KINDS = {
    "int": (_integer, lambda v, memo: str(v)),
    "term": (lambda p, owner: p.parse_term(),
             lambda v, memo: render(v, memo=memo)),
    "formula": (lambda p, owner: p.parse_formula(),
                lambda v, memo: render(v, memo=memo)),
    "name": (lambda p, owner: p.parse_domain_ref(), lambda v, memo: v),
}
#: parameter key -> (its kind, read, text); a step line carries no other key
_PARAMS = {key: (kind, *_KINDS[kind]) for key, kind in _PARAM_KINDS.items()}

#: script config key -> the TheoryConfig field it sets
_CONFIG_KEYS = {"singleton_axioms": "singleton_axioms",
                "classical_right_contexts": "right_contexts_in_forall"}


def _numbered(d: Derivation):
    """(id, step, premise ids, conclusion text, parameter texts) of every
    step of ``d``, premises first, shared steps once.  One render memo
    serves every step, so a sequent item, or a link of its chain, shared
    by several steps and their values is rendered once."""
    ids: dict = {}
    memo: dict = {}
    for node in d.walk():
        ids[node] = len(ids) + 1
        conclusion = render_sequent(node.conclusion, memo)
        if not node.params.keys() <= _PARAMS.keys():
            unknown = min(node.params.keys() - _PARAMS.keys())
            raise RuleError(f"unknown parameter {unknown}")
        yield (ids[node], node, [ids[p] for p in node.premises], conclusion,
               {k: _PARAMS[k][2](v, memo)
                for k, v in sorted(node.params.items()) if v is not None})


# ---------------------------------------------------------------------------
# serialization

#: a value with one of these characters is written in quotes
_QUOTED = re.compile("[ \t\"']")


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
    for n, node, refs, conclusion, params in _numbered(d):
        parts = [f"step {n}", node.rule.value]
        if node.direction:
            parts.append(node.direction)
        for key, text in params.items():
            if _QUOTED.search(text):
                text = f'"{text}"'
            parts.append(f"{key}={text}")
        if refs:
            parts.append(f"from {','.join(map(str, refs))}")
        parts.append(f":: {conclusion}")
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
    for n, node, refs, conclusion, params in _numbered(d):
        doc["steps"].append({
            "id": n,
            "rule": node.rule.value,
            "direction": node.direction,
            "params": params,
            "premises": refs,
            "conclusion": conclusion,
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


def parse_script(text: str) -> ProofScript:
    script = ProofScript()
    flags: dict = {}  # TheoryConfig field -> value, from config lines
    seen_ids: dict = {}
    memo: dict = {}  # every line reads a repeated text as the same node
    step_start = _header()[0]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        step = step_start.match(raw)
        if step is None:
            p = _Parser(raw, lineno, memo)
            first = p.next()
            if first.kind == "eof":
                continue
        column = first.column if step is None else step.start("step") + 1
        try:
            if step is not None:
                _parse_step_line(raw, lineno, step, memo, script, seen_ids)
                seen_ids[script.steps[-1][0]] = (lineno, column)
            elif first.text == "domain":
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
            else:
                raise RfodError("unrecognised script line starting "
                                f"{_shown(first)!r}")
        except RfodError as exc:
            list(_lexemes(raw, lineno))  # a bad character is reported first
            if isinstance(exc, DslSyntaxError):
                raise
            # an error of the line as a whole: a declaration it breaks or
            # a step it cannot place
            raise DslSyntaxError(str(exc), lineno, column) from exc
    if script.predicates:  # each step keeps to them; A^f is A's sharp mark
        arities = {sharp_pred_name(k): n for k, n in script.predicates.items()}
        arities.update(script.predicates)
        for step_id, *_, conclusion in script.steps:
            try:
                _validate_names(conclusion, None, arities)
            except LookupFailure as exc:
                raise DslSyntaxError(str(exc), *seen_ids[step_id]) from exc
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
    tok = p.peek()
    name = p.parse_domain_ref()
    # an identifier breaks the name rule only by ending in ^f, and D^f
    # names the sharp companion set of D
    if not is_singleton_literal(name) and name_fault(name):
        p.fail(f"domain {name}: a name ending in ^f names a sharp "
               "companion set", tok)
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
        elif flag in DOMAIN_KINDS:
            kind = flag
        else:
            raise RfodError(f"domain {name}: unknown flag {flag}")
    script.domains.register(Domain(name, tuple(terms), focused=is_focused,
                                   kind=kind))


@lru_cache(maxsize=None)
def _header():
    """A step line's start, ``step`` with its id and rule if they follow,
    and one item of its header, each whole tokens."""
    step_id = r"(?:\d*\.\d+|\d+(?:/\d+)?|%s(?![A-Za-z0-9_'^]))" % _WORD
    start = (r"[ \t\r]*(?P<step>step)(?![A-Za-z0-9_'^])"
             r"(?:[ \t\r]*(?P<id>%s)[ \t\r]*(?P<rule>%s))?" % (step_id, _WORD))
    item = r"""[ \t\r]*(?:(?P<direction>forward|backward)(?![A-Za-z0-9_'^])
      | from(?![A-Za-z0-9_'^])(?:[ \t\r]*
            (?P<refs>{id}(?:[ \t\r]*,[ \t\r]*{id})*)(?P<comma>[ \t\r]*,)?)?
      | (?P<key>{word})(?P<eq>[ \t\r]*=[ \t\r]*(?P<quote>")?)(?:[ \t\r]*
            (?:(?P<int>\d+(?![\d/]|\.\d))|(?P<name>{word}))(?(quote)[ \t\r]*"))?
      | (?P<end>::))""".format(id=step_id, word=_WORD)
    return re.compile(start), re.compile(item, re.VERBOSE)


def _parse_step_line(text: str, line: int, m, memo: dict,
                     script: ProofScript, seen_ids: dict) -> None:
    """The step line ``text``, whose start ``m`` matched: its header is
    read off the item pattern's matches, and each value they do not hold,
    and the conclusion, by a parser of the line started where it starts."""
    end = text.find("::")
    if end < 0 or text.find("--", 0, end) >= 0:
        raise RfodError("step line needs ':: <sequent>'")
    if m["rule"] is None:
        raise RfodError("step line starts 'step <id> <rule>'")
    step_id, rule = m["id"], _RULES_BY_NAME.get(m["rule"])
    if rule is None:
        raise RfodError(f"unknown rule {m['rule']}")
    item = _header()[1]
    direction = None
    params: dict = {}
    refs: list = []
    pos = m.end()
    while True:
        m = item.match(text, pos)
        if m is None:
            p = _Parser(text, line, pos=pos)
            p.fail(f"unexpected token {_shown(p.peek())!r} in step line")
        pos = m.end()
        key = m["key"]
        if key is not None:
            if key not in _PARAMS or key in params:
                fault = "repeated" if key in params else "unknown"
                raise DslSyntaxError(f"{fault} parameter {key}", line,
                                     m.start("key") + 1)
            kind, read, _ = _PARAMS[key]
            if kind == "int" and m["int"]:
                params[key] = int(m["int"])
            elif kind == "name" and m["name"]:
                params[key] = m["name"]
            else:
                p = _Parser(text, line, memo, m.end("eq"))
                params[key] = read(p, f"parameter {key}")
                if m["quote"]:
                    p.expect('"')
                pos = p.peek().column - 1
        elif m["direction"]:
            if direction is not None:
                raise DslSyntaxError("repeated direction", line,
                                     m.start("direction") + 1)
            direction = m["direction"]
        elif m["end"]:
            break
        elif m["refs"] is None or m["comma"] and item.match(text, pos):
            # no ids, or a comma after the last one and then an item
            raise RfodError("'from' needs premise ids")
        else:
            refs += m["refs"].replace(",", " ").split()
    if step_id in seen_ids:
        raise RfodError(f"duplicate step id {step_id}")
    for r in refs:
        if r not in seen_ids:
            raise RfodError(f"step {step_id} references unknown step {r}")
    p = _Parser(text, line, memo, pos)
    conclusion = p.read(p.parse_sequent)
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
