"""Command dispatch, exit codes, and the derive/check round trip."""
import json

import pytest

from rfod.cli import main

ALL_TARGETS = ("reflection", "lemma1", "prop1", "prop2", "prop3",
               "collapse", "distributivity", "uncertainty")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_bad_script_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("step 1 identity :: A( |- \n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("line", [
    "step 1 identity slot=abc :: A(x) |- A(x)",
    "step 1 identity position=1;2 :: A(x) |- A(x)",
    "step 1 weaken_l positions=a :: A(x) |- A(x)",
    "predicate A/x",
])
def test_malformed_integer_is_usage_error(tmp_path, capsys, line):
    bad = tmp_path / "bad.seq"
    bad.write_text("-- malformed integer on line 2\n" + line + "\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert err.startswith("error: 2:")
    assert "Traceback" not in out + err


def test_script_error_has_one_position_at_the_failing_token(tmp_path, capsys):
    bad = tmp_path / "bad.seq"
    bad.write_text("-- header\n\n  step 1 identity :: A( |- \n")
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    # '|-' is the 25th character of the raw third line
    assert err == "error: 3:25: expected a term, found '|-'\n"
