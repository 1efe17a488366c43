"""Command dispatch, exit codes, and the derive/check round trip."""
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rfod import theorems
from rfod.calculus import parse_script, rules
from rfod.cli import COMMANDS, _parse, main
from rfod.syntax import ast
from rfod.syntax import ContextVar, parse_sequent, render_domain, render_sequent

from gen import NAME_KINDS, make_rng, random_name

ALL_TARGETS = ("reflection", "lemma1", "prop1", "prop2", "prop3",
               "collapse", "distributivity", "uncertainty")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err



def test_translate_and_measure_match_golden(capsys):
    # each "$ rfod ..." line of the file is followed by what it prints; the
    # CI workflow replays the same lines with the installed console script
    golden = Path(__file__).parent / "golden" / "translate.txt"
    text = golden.read_text()
    out = []
    for line in text.splitlines():
        if line.startswith("$ rfod "):
            code, printed, _ = run(capsys, *shlex.split(line)[2:])
            assert code == 0, line
            out.append(line + "\n" + printed)
    assert len(out) == 10 and "".join(out) == text

def test_derive_reflection_accepted(capsys):
    code, out, _ = run(capsys, "derive", "reflection")
    assert code == 0
    assert "ACCEPTED" in out


def test_derive_lemma1_round_trips_through_check(tmp_path, capsys):
    script = tmp_path / "lemma1.seq"
    code, out, _ = run(capsys, "derive", "lemma1", "--m", "2",
                       "--focused", "D", "--out", str(script))
    assert code == 0
    assert "ACCEPTED" in out
    code, out, _ = run(capsys, "check", str(script))
    assert code == 0
    assert "ACCEPTED" in out


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_every_derive_target_rechecks(tmp_path, capsys, target):
    script = tmp_path / f"{target}.seq"
    argv = ["derive", target, "--out", str(script)]
    if target in ("lemma1", "prop1", "prop3"):
        argv += ["--focused", "D"]
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    assert "ACCEPTED" in out
    argv2 = ["check", str(script)]
    if target in ("lemma1", "prop1", "prop3"):
        argv2 += ["--focused", "D"]
    code, out, _ = run(capsys, *argv2)
    assert code == 0
    assert "ACCEPTED" in out


def test_check_rejects_disabled_singleton_axiom(tmp_path, capsys):
    script = tmp_path / "collapse.seq"
    code, _, _ = run(capsys, "derive", "collapse", "--out", str(script))
    assert code == 0
    code, out, _ = run(capsys, "check", str(script), "--no-singleton-axioms")
    assert code == 1
    assert "REJECTED" in out
    assert "disabled" in out


def test_check_unfocused_lemma_rejected(tmp_path, capsys):
    script = tmp_path / "lemma1.seq"
    run(capsys, "derive", "lemma1", "--focused", "D", "--out", str(script))
    text = script.read_text().replace(" focused", "")
    script.write_text(text)
    code, out, _ = run(capsys, "check", str(script))
    assert code == 1
    assert "REJECTED" in out


def test_derive_prop3_unfocused_exits_one(capsys):
    code, out, _ = run(capsys, "derive", "prop3")
    assert code == 1
    assert "NOT REVERSIBLE" in out
    assert "AX_FOCUS" in out


def test_measure_named_state(capsys):
    code, out, _ = run(capsys, "measure", "--state", "plus", "--basis", "Z")
    assert code == 0
    assert "DZ = { (s0, 1/2), (s1, 1/2) }" in out


def test_measure_json(capsys):
    code, out, _ = run(capsys, "measure", "--state", "plus", "--basis", "Z",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"] == [["s0", 1, 2], ["s1", 1, 2]]
    assert doc["kind"] == "uniform"


def test_measure_inline_json_state(capsys):
    code, out, _ = run(capsys, "measure", "--state", "[[1,0],[0,0]]",
                       "--basis", "Z")
    assert code == 0
    assert "(s0, 1)" in out


def test_translate_single_and_bipartite(capsys):
    code, out, _ = run(capsys, "translate", "--state", "plus")
    assert code == 0
    assert "G, z in DZ |- A(z)" in out
    code, out, _ = run(capsys, "translate", "--state", "bell", "--bipartite")
    assert code == 0
    assert "G, z in DS |- A(z) ,_S A'(z)" in out
    code, out, _ = run(capsys, "translate", "--state", "product_0plus",
                       "--bipartite")
    assert code == 0
    assert "G, z in DZ, y in DZ' |- A(z), A'(y)" in out


def test_translate_json(capsys):
    code, out, _ = run(capsys, "translate", "--state", "bell", "--bipartite",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["sequent"] == "G, z in DS |- A(z) ,_S A'(z)"
    assert doc["domains"][0]["name"] == "DS"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "bogus")[0] == 2
    assert run(capsys, "measure", "--state", "no_such_state")[0] == 2
    assert run(capsys, "check", "/no/such/file.seq")[0] == 2
    assert run(capsys, "measure")[0] == 2  # missing required flag


DERIVE_DEFAULTS = {
    "command": "derive", "target": "reflection", "m": 2, "n": None, "i": 1,
    "domain": "D", "pred": "A", "gamma": "G", "out": None, "focused": [],
    "singleton_axioms": None, "no_singleton_axioms": False,
    "classical_right_contexts": None, "json": False}


@pytest.mark.parametrize("argv,expected", [
    (["derive", "reflection"], DERIVE_DEFAULTS),
    (["derive", "reflection", "--m=3"], dict(DERIVE_DEFAULTS, m=3)),
    (["derive", "lemma1", "--focused", "D", "--focused", "E"],
     {"target": "lemma1", "focused": ["D", "E"]}),
    (["derive", "--foc", "D", "prop1", "--no-s", "--n", "-1"],
     {"target": "prop1", "focused": ["D"], "no_singleton_axioms": True,
      "n": -1}),
    (["check", "x.script", "--singleton-axioms", "off"],
     {"file": "x.script", "singleton_axioms": False,
      "no_singleton_axioms": False}),
    (["check", "x.script", "--no-singleton-axioms"],
     {"singleton_axioms": None, "no_singleton_axioms": True}),
    (["check", "--classical-right-contexts=on", "--", "-x"],
     {"file": "-x", "classical_right_contexts": True}),
    (["translate", "--state", "bell", "--bip", "--basis=X"],
     {"state": "bell", "basis": "X", "bipartite": True, "gamma": "G",
      "json": False}),
    (["measure", "--state", "plus"], {"state": "plus", "basis": "Z"}),
    (["derive", "reflection", "--bogus"], "unrecognized arguments: --bogus"),
    (["derive", "reflection", "--m"], "argument --m: expected one argument"),
    (["derive", "reflection", "--out", "--json"],
     "argument --out: expected one argument"),
    (["derive", "reflection", "--m", "x"],
     "argument --m: invalid int value: 'x'"),
    (["check", "x", "--singleton-axioms", "yes"],
     "argument --singleton-axioms: expected on|off"),
    (["check", "x", "--json=yes"],
     "argument --json: ignored explicit argument 'yes'"),
    (["translate", "--state", "bell", "--b", "X"],
     "ambiguous option: --b could match --basis, --bipartite"),
    (["derive", "lemma2"], "argument target: invalid choice: 'lemma2' "
                           "(choose from 'reflection', 'lemma1', "),
    (["derive", "reflection", "lemma1"], "unrecognized arguments: lemma1"),
    (["check"], "the following arguments are required: file"),
    (["measure", "--basis", "X"],
     "the following arguments are required: --state"),
    ([], "the following arguments are required: command"),
    (["prove"], "argument command: invalid choice: 'prove'"),
])
def test_argument_reader(capsys, argv, expected):
    """Each command line reads as argparse read it: to these arguments, or
    to exit 2 with this reason."""
    if isinstance(expected, dict):
        _, args = _parse(argv)
        assert {key: getattr(args, key) for key in expected} == expected
        if expected is DERIVE_DEFAULTS:
            assert vars(args) == expected
        return
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: rfod")
    assert f"error: {expected}" in err


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], *([command, "--help"] for command in COMMANDS),
    ["derive", "reflection", "-h"], ["translate", "--he"]])
def test_help_names_every_option(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    for command in COMMANDS if argv[0].startswith("-") else argv[:1]:
        assert f"usage: rfod {command} " in out
        for flag in COMMANDS[command][4]:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", out), flag


def test_check_json_report(tmp_path, capsys):
    script = tmp_path / "r.seq"
    run(capsys, "derive", "reflection", "--out", str(script))
    code, out, _ = run(capsys, "check", str(script), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert [s["rule"] for s in doc["steps"]] == ["identity", "eq_forall_r"]


def test_derive_json_output(capsys):
    code, out, _ = run(capsys, "derive", "reflection", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] is True
    assert doc["steps"][-1]["conclusion"] == \
        "forall x in D . A(x), z in D |- A(z)"


#: whether the derivation of each target leaves an open assumption
CLOSED = {"reflection": True, "lemma1": False, "prop1": True, "prop2": False,
          "prop3": False, "collapse": True, "distributivity": False,
          "uncertainty": False}


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_json_says_whether_the_proof_is_closed(tmp_path, capsys, target):
    script = tmp_path / f"{target}.script"
    focus = ["--focused", "D"] if target in ("lemma1", "prop1", "prop3") else []
    for argv in (["derive", target, "--out", str(script)],
                 ["check", str(script)]):
        code, out, _ = run(capsys, *argv, *focus, "--json")
        doc = json.loads(out)
        assert (code, doc["accepted"], doc["closed"]) == \
            (0, True, CLOSED[target]), argv
    assert doc["closed"] == (not doc["assumptions"])


def test_bad_script_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("step 1 identity :: A( |- \n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("line", [
    "step 1 identity slot=abc :: A(x) |- A(x)",
    "step 1 identity position=1;2 :: A(x) |- A(x)",
    "step 1 weaken_l position=a :: A(x) |- A(x)",
    "predicate A/x",
])
def test_malformed_integer_is_usage_error(tmp_path, capsys, line):
    bad = tmp_path / "bad.seq"
    bad.write_text("-- malformed integer on line 2\n" + line + "\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err.startswith("error: 2:")
    assert "Traceback" not in out + err



@pytest.mark.parametrize("text,error", [
    ("step 1 identity :: A(x, y) |- A(x, y)\n", None),
    ("predicate A/2\nstep 1 identity :: A(x, y) |- A(x, y)\n", None),
    ("predicate A/1\nstep 1 identity :: A(x, y) |- A(x, y)\n",
     "2:1: predicate A declared with arity 1, used with 2"),
    ("predicate B/2\nstep 1 identity :: A(x, y) |- A(x, y)\n",
     "2:1: unknown predicate symbol A"),
    ("predicate A/1\nstep 1 hypothesis :: G |- A(x)\n"
     "step 2 weaken_l position=0 from 1 :: A(x, y), G |- A(x)\n",
     "3:1: predicate A declared with arity 1, used with 2"),
    # A^f is the sharp mark of A, and takes its arity
    ("predicate A/2\nstep 1 identity :: A^f(x, y) |- A^f(x, y)\n", None),
    ("predicate A/1\nstep 1 identity :: A^f(x, y) |- A^f(x, y)\n",
     "2:1: predicate A^f declared with arity 1, used with 2"),
])
def test_predicate_declarations_bind_every_step(tmp_path, capsys, text,
                                                error):
    script = tmp_path / "p.script"
    script.write_text(text)
    code, out, err = run(capsys, "check", str(script))
    if error is None:
        assert (code, out.splitlines()[-1]) == (0, "ACCEPTED")
    else:
        assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("value", ["yes", "ON", "", "on off"])
def test_config_value_must_be_on_or_off(tmp_path, capsys, value):
    bad = tmp_path / "bad.seq"
    bad.write_text(f"-- bad config on line 2\nconfig singleton_axioms {value}\n"
                   "step 1 ax_singleton :: z in {u} |- z = u\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err.startswith("error: 2:1: config singleton_axioms: expected "
                          "'on' or 'off'")
    assert "Traceback" not in out + err


def test_undeclared_domain_in_axiom_is_a_rejected_step(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("step 1 ax_member :: |- #u in Q\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "step 1 ax_member :: |- #u in Q .. FAIL (unknown domain Q)" in out
    assert "REJECTED" in out
    assert "Traceback" not in out + err

def test_step_the_last_step_does_not_use_is_a_script_error(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("-- step 2 stands alone\nstep 1 identity :: A(x) |- B(x)\n"
                   "step 2 identity :: A(x) |- A(x)\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: 2:1: step 1 is not used by the last step\n"


def test_unknown_parameter_key_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("step 1 hypothesis :: |- z = z\n"
                   "step 2 weaken_l position=0 foo=bar from 1 :: "
                   "z in D |- z = z\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (2, "")
    # 'foo' is the 28th character of the second line
    assert err == "error: 2:28: unknown parameter foo\n"


@pytest.mark.parametrize("text,step", [
    ("step 1 hypothesis :: |- z = z\n"
     "step 2 weaken_l backward position=0 from 1 :: z in D |- z = z\n",
     "weaken_l"),
    ("step 1 hypothesis backward :: |- z = z\n", "hypothesis"),
])
def test_direction_on_a_rule_without_one_is_rejected(tmp_path, capsys, text,
                                                     step):
    bad = tmp_path / "bad.seq"
    bad.write_text(text)
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert f"FAIL ({step} takes no direction)" in out
    assert "REJECTED" in out
    assert "Traceback" not in out + err


@pytest.mark.parametrize("text,reason", [
    # a backward step reads pick= as the builders' conclude does
    *(("step 1 hypothesis :: G |- A(x) & B(x)\n"
       f"step 2 eq_and_r backward {pick}from 1 :: G |- B(x)\n",
       "eq_and_r gives no single sequent") for pick in ("", "pick=middle ")),
    ("step 1 hypothesis :: G |- A(x), B(x)\n"
     "step 2 hypothesis :: A(x) |- C(x)\n"
     "step 3 cut from 1,2 :: G |- C(x)\n",
     "first cut premise must conclude a single formula"),
    ("domain D = { <t1, 1/2>, <t2, 1/2> } focused\n"
     "step 1 ax_focus :: z in D |- y = <t1, 1/2> \\/ y = <t2, 1/2>\n",
     "each disjunct must equate the membership variable"),
    ("domain D = { <t1, 1/2>, <t2, 1/2> }\n"
     "step 1 hypothesis :: forall x in D . A(x), z in D |- A(z)\n"
     "step 2 f_subst var=z state=t9 from 1 :: "
     "forall x in D . A(x), #t9 in D^f |- A^f(#t9)\n",
     "state t9 is not an outcome of domain D"),
    ("step 1 hypothesis :: G |- A(<t1, 1/3>)\n"
     "step 2 eq_equality backward term=\"<t1, 1/3>\" var=z index=7 from 1 :: "
     "G, z = <t1, 1/3> |- A(z)\n",
     "index 7 out of range"),
    ("step 1 hypothesis :: G |- A(x) & B(x)\n"
     "step 2 eq_and_r pick=left from 1 :: G |- A(x)\n",
     "eq_and_r needs direction forward|backward"),
    ("step 1 identity :: G |- G\n", "identity holds between formulas"),
    ("domain D = { <t1, 1/2>, <t2, 1/2> }\n"
     "step 1 ax_member :: |- A(<t1, 1/2>)\n",
     "membership fact concludes t in D"),
    ("domain D = { <t1, 1/2>, <t2, 1/2> }\n"
     "step 1 ax_member :: B(x) |- <t1, 1/2> in D, C(x)\n",
     "membership fact is |- t in D"),
])
def test_side_condition_rejects_the_step(tmp_path, capsys, text, reason):
    bad = tmp_path / "bad.seq"
    bad.write_text(text)
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert f"FAIL ({reason})" in out
    assert "Traceback" not in out + err


def test_singleton_literal_domain_holds_only_its_singleton(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("domain {u} = { <a, 1/2>, <b, 1/2> }\nstep 1 ax_focus :: "
                   "z in {u} |- z = <a, 1/2> \\/ z = <b, 1/2>\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (2, "")
    assert err == ("error: 1:1: domain {u}: a singleton literal name holds "
                   "exactly { #u }\n")


def test_sharp_membership_note_is_a_whole_sentence(tmp_path, capsys):
    script = tmp_path / "collapse.seq"
    assert run(capsys, "derive", "collapse", "--out", str(script))[0] == 0
    code, out, _ = run(capsys, "check", str(script))
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("note:")] \
        == ["note: step 1: sharp membership taken as a declared fact of the "
            "singleton axioms"]


def test_domain_named_as_a_sharp_companion_is_a_parse_error(tmp_path,
                                                            capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("domain D = { <c, 1/2>, <d, 1/2> }\n"
                   "domain D^f = { <a, 1/2>, <b, 1/2> }\n"
                   "step 1 ax_sharp_member :: |- #c in D^f\n")
    code, out, err = run(capsys, "check", str(bad))
    assert (code, out) == (2, "")
    # 'D^f' is the 8th character of the second line
    assert err == ("error: 2:8: domain D^f: a name ending in ^f names a "
                   "sharp companion set\n")


def test_script_error_has_one_position_at_the_failing_token(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("-- header\n\n  step 1 identity :: A( |- \n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    # '|-' is the 25th character of the raw third line
    assert err == "error: 3:25: expected a term, found '|-'\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_derive_script_matches_golden(tmp_path, capsys, target):
    # reflection's golden script is the default size, the one criterion 1
    # pins; the other targets are pinned at m=3
    argv = ["derive", target, "--out", str(tmp_path / "out.script")]
    if target != "reflection":
        argv += ["--m", "3"]
    if target in ("lemma1", "prop1", "prop3"):
        argv += ["--focused", "D"]
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    assert (tmp_path / "out.script").read_bytes() == \
        (GOLDEN / f"{target}.script").read_bytes()


@pytest.mark.parametrize("levels,accepted", [(100, True), (130, False),
                                             (1200, False)])
def test_deep_parentheses_are_a_parse_error(tmp_path, capsys, levels,
                                            accepted):
    script = tmp_path / "deep.seq"
    prefix = "step 1 identity :: "
    script.write_text(f"{prefix}{'(' * levels}A(x){')' * levels} |- A(x)\n")
    code, out, err = run(capsys, "check", str(script))
    assert "Traceback" not in out + err
    if accepted:
        assert code == 0 and "ACCEPTED" in out
    else:
        # the parenthesis that opens level 101
        assert code == 2
        assert err == (f"error: 1:{len(prefix) + 101}: formula nested "
                       "deeper than 100 levels\n")


@pytest.mark.parametrize("target", [t for t in ALL_TARGETS if t != "prop2"])
def test_every_target_with_a_predicate_takes_pred(tmp_path, capsys, target):
    """prop2 states no predicate; every other target writes --pred's
    symbol, and distributivity its primed twin, in place of A."""
    script = tmp_path / "pred.script"
    focus = [] if target == "reflection" else ["--focused", "D"]
    code, out, _ = run(capsys, "derive", target, "--pred", "Q", "--m", "3",
                       *focus, "--out", str(script))
    assert code == 0 and out.endswith("ACCEPTED\n")
    text = script.read_text()
    assert not re.search(r"\bA(\^f|')?\(", text)
    code, out, _ = run(capsys, "check", str(script))
    assert code == 0 and out.endswith("ACCEPTED\n")
    if target == "distributivity":
        assert "step 1 hypothesis :: G, z in D, y in D' |- Q(z), Q'(y)\n" \
            in text


def test_derive_distributivity_n_zero_is_not_m(capsys):
    code, out, err = run(capsys, "derive", "distributivity", "--n", "0")
    assert code == 1
    assert "ACCEPTED" not in out
    assert err == "error: domain needs at least one element\n"


@pytest.mark.parametrize("argv,message", [
    (["translate", "--state", "5"], "state JSON must be a list"),
    (["translate", "--state", "[[1]]"], "[re, im] pair, got [1]"),
    (["translate", "--state", '["a", 0]'], "[re, im] pair, got 'a'"),
    (["translate", "--state", '{"a": 1}'], "state JSON must be a list"),
    (["translate", "--state", "[true, false]"], "pair, got True"),
    (["measure", "--state", "zero", "--basis", "[1]"],
     'non-empty "vectors" list'),
    (["measure", "--state", "zero", "--basis", '{"vectors": []}'],
     'non-empty "vectors" list'),
    (["measure", "--state", "zero", "--basis",
      '{"vectors": [[1, 0], [0, 1]], "labels": [0, 1]}'],
     '"labels" a list of strings'),
])
def test_malformed_state_or_basis_json_is_a_usage_error(capsys, argv,
                                                        message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: 1:1: ") and message in err


@pytest.mark.parametrize("basis,message", [
    ('"labels": ["a b", "c"]', "label 'a b' must be an identifier and not "
     "a keyword"),
    ('"labels": ["forall", "c"]', "label 'forall' must be an identifier "
     "and not a keyword"),
    ('"name": "B x"', "name 'B x' must be an identifier and not a keyword"),
    ('"name": "in"', "name 'in' must be an identifier and not a keyword"),
    ('"labels": ["a", "a"]', "labels ['a', 'a'] are not distinct"),
])
def test_basis_names_and_labels_are_distinct_identifiers(capsys, basis,
                                                         message):
    code, out, err = run(capsys, "translate", "--state", "plus", "--basis",
                         '{"vectors": [[1, 0], [0, 1]], %s}' % basis)
    assert (code, out, err) == (2, "", f"error: 1:1: basis {message}\n")


def test_basis_name_ending_in_sharp_suffix_is_a_usage_error(capsys):
    """`D<name>` is the domain translate declares, and `DB^f` would read as
    the sharp companion set of `DB`."""
    code, out, err = run(capsys, "translate", "--state", "plus", "--basis",
                         '{"vectors": [[1, 0], [0, 1]], "name": "B^f"}')
    assert (code, out) == (2, "")
    assert err == ("error: 1:1: basis name 'B^f' must not end in ^f, which "
                   "names a sharp companion set\n")


@pytest.mark.parametrize("argv,message", [
    (["derive", "lemma1", "--domain", "D^f", "--focused", "D^f"],
     "argument --domain: name 'D^f' must not end in ^f, which names a "
     "sharp companion set"),
    (["derive", "reflection", "--pred", "forall"],
     "argument --pred: name 'forall' must be an identifier and not a "
     "keyword"),
    (["derive", "lemma1", "--domain", "a b", "--focused", "a b"],
     "argument --domain: name 'a b' must be an identifier"),
    (["derive", "lemma1", "--focused", "D^f"], "argument --focused: "),
    (["derive", "prop3", "--gamma", "in"], "argument --gamma: "),
    (["derive", "uncertainty", "--pred", "A^f"], "argument --pred: "),
    (["translate", "--state", "plus", "--gamma", "bot"],
     "argument --gamma: "),
])
def test_names_that_do_not_read_back_are_refused_at_the_argument(
        capsys, argv, message):
    """Each of these wrote a script (or an assertion) that `rfod check`
    then refused to read."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err


def test_seeded_names_read_back_or_are_refused(tmp_path, capsys):
    """A name rfod accepts as an argument reads back from what it writes;
    one it refuses is refused at the argument."""
    rng = make_rng(23)
    script = tmp_path / "named.script"
    for flag in ("domain", "pred", "gamma", "focused"):
        for kind in NAME_KINDS * 6:
            name = random_name(rng, kind)
            focus = ["--focused", "D"]
            if flag in ("domain", "focused"):
                focus = ["--domain", name, "--focused", name]
            argv = ["derive", rng.choice(ALL_TARGETS), f"--{flag}", name,
                    *focus, "--out", str(script)]
            code, out, err = run(capsys, *argv)
            if kind != "valid":
                assert (code, out) == (2, "") and \
                    f"argument --{flag}: " in err, argv
                continue
            assert code == 0, (argv, err)
            assert run(capsys, "check", str(script)) == \
                (code, out[len(script.read_text()):], ""), argv
    for kind in NAME_KINDS * 8:
        name = random_name(rng, kind)
        state = rng.choice((["plus"], ["bell", "--bipartite"],
                            ["product_0plus", "--bipartite"]))
        code, out, err = run(capsys, "translate", "--gamma", name,
                             "--state", *state)
        if kind != "valid":
            assert (code, out) == (2, "") and "argument --gamma: " in err
            continue
        *declared, assertion = out.splitlines()
        assert code == 0 and declared, err
        parse_script("\n".join(declared) + "\n")
        sequent = parse_sequent(assertion)
        assert render_sequent(sequent) == assertion
        assert sequent.antecedent[0] == ContextVar(name)


def test_derived_names_read_back(tmp_path, capsys):
    script = tmp_path / "lemma1.script"
    code, out, _ = run(capsys, "derive", "lemma1", "--domain", "E'",
                       "--pred", "B'", "--gamma", "G_2", "--focused", "E'",
                       "--out", str(script))
    assert code == 0 and out.endswith("ACCEPTED\n")
    code, out, _ = run(capsys, "check", str(script))
    assert code == 0 and out.endswith("ACCEPTED\n")


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_all_names_are_walked_only_to_choose_a_fresh_one(tmp_path, capsys,
                                                         monkeypatch, target):
    """``_var_names`` walks a node; the builders call it to choose a fresh
    name, as often at m=4 as at m=64, and check never calls it."""
    calls = []

    def counted(node, names=ast._var_names):
        calls.append(node)
        return names(node)

    for module in (rules, theorems):
        monkeypatch.setattr(module, "_var_names", counted)
    counts = []
    for m in ("4", "64"):
        script = tmp_path / f"m{m}.script"
        calls.clear()
        code, _, _ = run(capsys, "derive", target, "--m", m, "--focused", "D",
                         "--out", str(script))
        assert code == 0
        counts.append(len(calls))
        calls.clear()
        assert run(capsys, "check", str(script), "--focused", "D")[0] == 0
        assert calls == []
    assert counts[0] == counts[1]


@pytest.mark.parametrize("state,basis,bipartite", [
    ("plus", '"labels": ["a", "b"]', False),
    ("zero", '"labels": ["up", "down"], "name": "Q"', False),
    ("[0.6, 0.8]", '"labels": ["x\'", "y^f"], "name": "_B\'"', False),
    ("[0.6, 0.8]", '"labels": ["in_", "bot1"], "name": "forall_"', False),
    ("product_0plus", '"labels": ["u", "v"], "name": "L"', True),
    ("bell", '"name": "W"', True),
])
def test_translated_domains_parse_back(capsys, state, basis, bipartite):
    """Every domain translate prints for an accepted basis is a script
    declaration that parse_script reads back as the same domain."""
    argv = ["translate", "--state", state, "--basis",
            '{"vectors": [[1, 0], [0, 1]], %s}' % basis]
    code, out, _ = run(capsys, *argv + ["--bipartite"] * bipartite)
    assert code == 0
    declared = [line for line in out.splitlines()
                if line.startswith("domain ")]
    assert declared
    table = parse_script("\n".join(declared) + "\n").domains
    assert [f"domain {render_domain(d)} {d.kind}" + " focused" * d.focused
            for d in table.domains()] == declared


def test_unreadable_or_unwritable_files_are_usage_errors(tmp_path, capsys):
    binary = tmp_path / "latin1.seq"
    binary.write_bytes(b"\xff\xfe\n")
    missing = tmp_path / "no" / "such.script"
    for argv, verb, path, reason in [
            (["check", str(tmp_path)], "read", tmp_path, "Is a directory"),
            (["check", str(binary)], "read", binary, "can't decode"),
            (["check", str(missing)], "read", missing,
             "No such file or directory"),
            (["translate", "--state", f"@{tmp_path}"], "read", tmp_path,
             "Is a directory"),
            (["derive", "reflection", "--out", str(tmp_path)], "write",
             tmp_path, "Is a directory"),
            (["derive", "reflection", "--out", str(missing)], "write",
             missing, "No such file or directory")]:
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith(f"error: cannot {verb} {path}: ") \
            and reason in err, err


def fresh(code):
    """stdout of `code` run in a new interpreter that finds this rfod."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.parametrize("argv", [
    ["check", str(GOLDEN / "reflection.script")], ["derive", "reflection"]])
def test_check_and_derive_leave_numpy_unloaded(argv):
    out = fresh("import sys, rfod.cli\n"
                f"assert rfod.cli.main({argv!r}) == 0\n"
                "print('numpy' in sys.modules)")
    assert "ACCEPTED" in out
    assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("run", [
    "import rfod",
    "import rfod.cli\n"
    f"assert rfod.cli.main({['check', str(GOLDEN / 'reflection.script')]!r})"
    " == 0",
    "import rfod.cli\nassert rfod.cli.main(['derive', 'reflection']) == 0"],
    ids=["import", "check", "derive"])
def test_rfod_leaves_dataclasses_and_inspect_unloaded(run):
    out = fresh(f"import sys\n{run}\n"
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    assert out.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv,expected", [
    (["translate", "--state", "plus"],
     "domain DZ = { <s0, 1/2>, <s1, 1/2> } uniform\nG, z in DZ |- A(z)\n"),
    (["translate", "--bipartite", "--state", "bell"],
     "domain DS = { <s1, 1/2>, <s2, 1/2> } uniform focused\n"
     "G, z in DS |- A(z) ,_S A'(z)\n"),
    (["translate", "--bipartite", "--state", "product_0plus", "--basis", "X"],
     "domain DX = { <plus_x, 1/2>, <minus_x, 1/2> } uniform\n"
     "domain DX' = { #plus_x } singleton focused\n"
     "G, z in DX, y in DX' |- A(z), A'(y)\n"),
    (["measure", "--state", "plus", "--basis", "X"],
     "DX = { (plus_x, 1) }  [singleton]\n")],
    ids=["translate", "translate-entangled", "translate-product", "measure"])
def test_translate_and_measure_leave_numpy_unloaded(argv, expected):
    out = fresh("import sys, rfod.cli\n"
                f"assert rfod.cli.main({argv!r}) == 0\n"
                "print('numpy' in sys.modules)")
    assert out == expected + "False\n"


@pytest.mark.parametrize("argv,unused", [
    (["check", str(GOLDEN / "reflection.script")],
     ["argparse", "json", "rfod.theorems"]),
    (["derive", "reflection"], ["argparse", "json"]),
    (["translate", "--bipartite", "--state", "bell"],
     ["argparse", "json", "rfod.theorems"])],
    ids=["check", "derive", "translate"])
def test_commands_load_only_what_they_use(argv, unused):
    out = fresh("import sys, rfod.cli\n"
                f"assert rfod.cli.main({argv!r}) == 0\n"
                f"print(sorted(set({unused!r}) & set(sys.modules)))")
    assert out.splitlines()[-1] == "[]"


def test_bare_import_holds_quantum_but_not_numpy():
    # the benchmark's tracer reads sys.modules["rfod.quantum"] after a bare
    # `import rfod`
    out = fresh("import sys, rfod\n"
                "print('rfod.quantum' in sys.modules, 'numpy' in sys.modules)")
    assert out == "True False\n"


def test_first_quantum_call_binds_numpy_itself():
    out = fresh("import sys\n"
                "from rfod import quantum\n"
                "print(quantum.np is sys.modules.get('numpy'))\n"
                "z = quantum.basis_z()\n"
                "quantum.density_of(quantum.measure("
                "quantum.named_state('plus'), z), z)\n"
                "print(quantum.np is sys.modules['numpy'])")
    assert out == "False\nTrue\n"
