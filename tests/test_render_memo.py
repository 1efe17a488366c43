"""The printer memo: a script renders each shared sequent item, and each
link of its chain, once, and its text is the text of rendering every step
without a memo."""
import contextlib
import io
import json
from pathlib import Path

import pytest

from rfod import cli
from rfod.calculus import (
    Derivation, FORWARD, RuleId, derivation_to_json, equation_step,
    parse_script, script, serialize_derivation,
)
from rfod.syntax import (
    And, Atom, Or, Sequent, Star, Var, alpha_eq, render, render_sequent,
)

GOLDEN = Path(__file__).parent / "golden"


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_a_cached_item_is_parenthesised_where_it_is_an_operand():
    """An `Or` rendered as an item of step 1 is the left operand of an `&`
    in step 3, where its text needs parentheses."""
    x = Var("x")
    either = Or(Atom("A", (x,)), Atom("B", (x,)))
    one = Derivation(Sequent((), (either,)), RuleId.HYPOTHESIS)
    two = Derivation(Sequent((), (Atom("C", (x,)),)), RuleId.HYPOTHESIS)
    [both] = equation_step([one.conclusion, two.conclusion],
                           RuleId.EQ_AND_R, FORWARD)
    assert both.succedent[0].left is either
    root = Derivation(both, RuleId.EQ_AND_R, FORWARD, premises=(one, two))
    text = serialize_derivation(root)
    assert text == ("step 1 hypothesis :: |- A(x) \\/ B(x)\n"
                    "step 2 hypothesis :: |- C(x)\n"
                    "step 3 eq_and_r forward from 1,2 :: "
                    "|- (A(x) \\/ B(x)) & C(x)\n")
    steps = [node.conclusion for node in root.walk()]
    assert [s["conclusion"] for s in derivation_to_json(root)["steps"]] == \
        [render_sequent(s) for s in steps]
    read = parse_script(text).steps
    assert len(read) == len(steps)
    assert all(alpha_eq(step[-1], s) for step, s in zip(read, steps))


def test_a_memo_hit_takes_the_level_it_is_found_at():
    x = Var("x")
    either = Or(Atom("A", (x,)), Atom("B", (x,)))
    memo: dict = {}
    assert render_sequent(Sequent((either,), ()), memo) == "A(x) \\/ B(x) |-"
    assert id(either) in memo
    for node in (And(either, either), Or(either, either),
                 Sequent((And(Atom("C", (x,)), either),), (either,))):
        assert render(node, memo=memo) == render(node)


def test_a_cached_chain_link_is_a_suffix_of_its_item():
    """Each link on the right spine of a chain item is kept as the item's
    text and an offset, and is parenthesised where it is an operand that
    its level does not take bare."""
    a, b, c, d = (Atom(p, (Var("x"),)) for p in "ABCD")
    memo: dict = {}
    for chain in (And, Or, Star):
        item = chain(a, chain(b, chain(c, d)))
        link = item.right.right
        text = render_sequent(Sequent((), (item,)), memo)
        assert memo[id(link)][1] is memo[id(item)][1] == text[3:]
        assert memo[id(link)][2] == text.index("C(x)") - 3
        # the link as the left operand of a chain of each kind, and of its
        # own kind, where it needs parentheses, and as an item again
        for node in (And(link, a), Or(link, a), Star(link, a),
                     chain(chain(a, link), b),
                     Sequent((link,), (Or(b, item.right),))):
            assert render(node, memo=memo) == render(node)
        assert render(Or(link, a), memo=memo) == {
            And: "C(x) & D(x) \\/ A(x)", Or: "(C(x) \\/ D(x)) \\/ A(x)",
            Star: "(C(x) * D(x)) \\/ A(x)"}[chain]


def _derived(monkeypatch, target, m):
    """The derivation `rfod derive target --m m --focused D` serializes,
    with the arguments it serializes it with, and the text."""
    seen = []

    def serialize(d, *args, **kwargs):
        text = serialize_derivation(d, *args, **kwargs)
        seen.append((d, args, kwargs, text))
        return text

    monkeypatch.setattr(cli, "serialize_derivation", serialize)
    _run(["derive", target, "--m", str(m), "--focused", "D"])
    [derived] = seen
    return derived


def _matches_render_without_a_memo(monkeypatch, target, m):
    """The script and its JSON twin, steps and parameter values alike, are
    what rendering every conclusion and value on its own gives."""
    root, args, kwargs, text = _derived(monkeypatch, target, m)
    table, config = args[0], kwargs["config"]
    doc = derivation_to_json(root, table, config=config)
    with monkeypatch.context() as patch:
        patch.setattr(script, "render",
                      lambda node, level=0, memo=None: render(node, level))
        patch.setattr(script, "render_sequent",
                      lambda s, memo=None: render(s))
        assert serialize_derivation(root, *args, **kwargs) == text
        assert derivation_to_json(root, table, config=config) == doc
    return root, text, doc


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("target", cli.DERIVE_TARGETS)
def test_serialized_steps_match_render_without_a_memo(monkeypatch, target,
                                                      m):
    root, text, _ = _matches_render_without_a_memo(monkeypatch, target, m)
    lines = [line for line in text.splitlines() if line.startswith("step ")]
    nodes = list(root.walk())
    assert len(lines) == len(nodes)
    for line, node in zip(lines, nodes):
        assert line.split(" :: ")[1] == render_sequent(node.conclusion)


@pytest.mark.parametrize("m", [16, 64])
@pytest.mark.parametrize("target", ["lemma1", "prop1", "prop3"])
def test_large_scripts_match_render_without_a_memo(monkeypatch, target, m):
    """At sizes where steps share chain suffixes."""
    _, _, doc = _matches_render_without_a_memo(monkeypatch, target, m)
    assert sum(bool(step["params"]) for step in doc["steps"]) > m


@pytest.mark.parametrize("script", sorted(GOLDEN.glob("*.script")),
                         ids=lambda p: p.stem)
def test_check_reports_match_render_without_a_memo(monkeypatch, script):
    """The text and JSON reports of `rfod check` read as they did when
    every step's sequent was rendered on its own."""
    reports = [_run(["check", str(script)]), _run(["check", str(script),
                                                   "--json"])]
    monkeypatch.setattr(cli, "render_sequent", lambda s, memo=None: render(s))
    assert reports == [_run(["check", str(script)]),
                       _run(["check", str(script), "--json"])]
    assert json.loads(reports[1][1])["steps"]


class _CountingMemo(dict):
    look_ups = 0

    def get(self, key, default=None):
        self.look_ups += 1
        return dict.get(self, key, default)


def test_rendering_steps_looks_up_the_memo_linearly(monkeypatch):
    """lemma1's steps take one conjunct off a chain at a time: rendering
    them makes memo look-ups that grow with m, not with m squared."""
    counts = []
    for m in (32, 64):
        memo = _CountingMemo()
        for node in _derived(monkeypatch, "lemma1", m)[0].walk():
            render_sequent(node.conclusion, memo)
        counts.append(memo.look_ups)
    assert counts[1] <= 2.2 * counts[0], counts
