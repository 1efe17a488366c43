"""The printer memo: a script renders each shared sequent item once, and
its text is the text of rendering every step without a memo."""
import contextlib
import io
import json
from pathlib import Path

import pytest

from rfod import cli
from rfod.calculus import (
    Derivation, FORWARD, RuleId, derivation_to_json, equation_step,
    parse_script, serialize_derivation,
)
from rfod.syntax import (
    And, Atom, Or, Sequent, Var, alpha_eq, render, render_sequent,
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


@pytest.mark.parametrize("m", [2, 3, 5])
@pytest.mark.parametrize("target", cli.DERIVE_TARGETS)
def test_serialized_steps_match_render_without_a_memo(monkeypatch, target,
                                                      m):
    seen = []

    def serialize(d, *args, **kwargs):
        text = serialize_derivation(d, *args, **kwargs)
        seen.append((d, text))
        return text

    monkeypatch.setattr(cli, "serialize_derivation", serialize)
    _run(["derive", target, "--m", str(m), "--focused", "D"])
    [(root, text)] = seen
    lines = [line for line in text.splitlines() if line.startswith("step ")]
    nodes = list(root.walk())
    assert len(lines) == len(nodes)
    for line, node in zip(lines, nodes):
        assert line.split(" :: ")[1] == render_sequent(node.conclusion)


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
