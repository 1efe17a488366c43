"""One memo per parse_script call: repeated texts are read once, and every
script reads exactly as the plain parse, which lexes each line whole and
keeps no memo."""
import contextlib
import io

import pytest

from rfod.calculus import parse_script
from rfod.calculus import script as script_module
from rfod.cli import DERIVE_TARGETS, main as cli_main
from rfod.errors import DslSyntaxError, RfodError
from rfod.syntax import parse_formula, walk
from rfod.syntax.parser import _Parser

from gen import make_rng

#: the edits under which a derived script must be rejected
REJECT_EDITS = {
    "lemma1": (" focused\n", "\n"),
    "prop1": (" focused\n", "\n"),
    "prop3": (" focused\n", "\n"),
    "collapse": ("config singleton_axioms on\n",
                 "config singleton_axioms off\n"),
}


def _derive(tmp_path, target, m, focused):
    """The script ``rfod derive`` writes, or None where it refuses."""
    path = tmp_path / f"{target}-{m}.script"
    argv = ["derive", target, "--m", str(m), "--out", str(path)]
    if focused:
        argv += ["--focused", "D"]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        if cli_main(argv) != 0:
            return None
    return path.read_text()


def _scripts(tmp_path, sizes):
    """Every derive target at each size, with and without a focused D,
    and each must-reject variant."""
    for target in DERIVE_TARGETS:
        for m in sizes:
            for focused in (False, True):
                text = _derive(tmp_path, target, m, focused)
                if text is None:
                    continue
                yield text
                old, new = REJECT_EDITS.get(target, (None, None))
                if old is not None and old in text:
                    yield text.replace(old, new, 1)


def _reading(text):
    """The steps of a script, or its error's type, text, line and column."""
    try:
        return parse_script(text).steps
    except RfodError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))


@pytest.fixture
def plain_reading(monkeypatch):
    """The reading of a script by the plain parse: every text lexed from
    where its reading starts to the end of its line before it is read, and
    no memo."""
    def lexed_whole(raw, lineno, memo=None, pos=0):
        p = _Parser(raw, lineno, pos=pos)
        p.drain()
        return p

    def read(text):
        with monkeypatch.context() as patch:
            patch.setattr(script_module, "_Parser", lexed_whole)
            return _reading(text)
    return read


def test_script_memo_parity(tmp_path, plain_reading):
    count = 0
    for text in _scripts(tmp_path, (2, 3, 8, 64)):
        assert _reading(text) == plain_reading(text)
        count += 1
    assert count == 72


def _mutant(rng, text):
    """One edit of a script: a character replaced, inserted or deleted
    anywhere, or, after a line's '::', a piece of the script pasted or a
    token the memo must not read across."""
    if rng.random() < 0.5:
        i = rng.randrange(len(text))
        c = rng.choice("abxyzAD0123/<>(),.;=&*|-\\_'#{}\"!: \t")
        return rng.choice((text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                           text[:i] + text[i + 1:]))
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    cut = lines[k].find("::")
    if cut < 0:
        return text
    i = rng.randrange(cut + 2, len(lines[k]) + 1)
    src = rng.choice(lines)
    a = rng.randrange(len(src) + 1)
    piece = rng.choice((src[a:a + rng.randrange(1, 40)], "'", "(x)", ")",
                        "(", " & A(x)", " \\/ bot", " * ", "bot_Q", ",_Q ",
                        "?"))
    lines[k] = lines[k][:i] + piece + lines[k][i:]
    return "\n".join(lines)


def test_script_memo_mutants(tmp_path, plain_reading):
    scripts = list(_scripts(tmp_path, (8,)))
    rng = make_rng(salt=9)
    outcomes = set()
    for _ in range(2000):
        mutant = _mutant(rng, rng.choice(scripts))
        reading = _reading(mutant)
        assert reading == plain_reading(mutant), mutant
        outcomes.add(type(reading))
    assert outcomes == {list, tuple}  # both readings and errors were met


def test_repeated_formulas_are_one_object(tmp_path):
    m = 64
    script = parse_script(_derive(tmp_path, "lemma1", m, True))
    done = {}
    picked = 0
    nodes = set()
    for step_id, rule, _, params, refs, c in script.steps:
        done[step_id] = c
        nodes.update(id(n) for n in walk(c))
        if rule.value == "eq_and_r" and params.get("pick") == "right":
            assert c.succedent[0] is done[refs[0]].succedent[0].right
            picked += 1
    assert picked == m - 1
    assert len(nodes) < 40 * m


# texts the third line repeats where the plain parse reads them otherwise,
# or not at all
EARLIER = ("step 1 hypothesis :: G |- x = yyyyyyyyyyyy & A(<t1, 1/2>) "
           "& bot_Yyyyyyyyyyy\n"
           "step 2 weaken_l from 1 :: G, A(<t1, 1/2>) \\/ B(<t2, 1/2>), "
           "forall z in D . A(<t1, 1/2>) |- x = yyyyyyyyyyyy & "
           "A(<t1, 1/2>) & bot_Yyyyyyyyyyy\n")


@pytest.mark.parametrize("conclusion,accepted", [
    # the last character runs on into the next one
    ("G, x = yyyyyyyyyyyy' |- A(x)", True),
    # the text ends an atom's name
    ("G, A(<t1, 1/2>) & bot_Yyyyyyyyyyy(x) |- A(x)", True),
    # the chain goes on
    ("G, A(<t1, 1/2>) & bot_Yyyyyyyyyyy & B(x) |- A(x)", True),
    # an item read as part of a looser chain
    ("G, A(<t1, 1/2>) & bot_Yyyyyyyyyyy \\/ B(x) |- A(x)", True),
    # not at the start of a token
    ("G, Bx = yyyyyyyyyyyy |- A(x)", True),
    # a suffix of a chain that is not one in the line
    ("G |- (x = yyyyyyyyyyyy & A(<t1, 1/2>)) & bot_Yyyyyyyyyyy", True),
    # a looser chain read as the rest of a tighter one
    ("G, C(x) & A(<t1, 1/2>) \\/ B(<t2, 1/2>) |- A(x)", True),
    # a quantifier where a chain needs parentheses
    ("G, C(x) & forall z in D . A(<t1, 1/2>) |- A(x)", False),
])
def test_memo_reads_a_text_only_where_the_plain_parse_does(
        plain_reading, conclusion, accepted):
    text = EARLIER + f"step 3 weaken_l from 2 :: {conclusion}\n"
    reading = _reading(text)
    assert reading == plain_reading(text)
    assert isinstance(reading, list) is accepted


def test_memo_reuses_a_repeated_item(plain_reading):
    text = ("step 1 hypothesis :: G |- B(<t2, 1/2>) & C(<t3, 1/2>)\n"
            "step 2 weaken_l from 1 :: G, A(<t1, 1/2>) & B(<t2, 1/2>) "
            "& C(<t3, 1/2>) |- B(<t2, 1/2>) & C(<t3, 1/2>)\n"
            "step 3 weaken_l from 2 :: G, A(<t1, 1/2>) & B(<t2, 1/2>) "
            "& C(<t3, 1/2>), A(<t1, 1/2>) & X(y) |- B(<t2, 1/2>) "
            "& C(<t3, 1/2>)\n")
    steps = parse_script(text).steps
    assert steps == plain_reading(text)
    assert steps[2][5].antecedent[1] is steps[1][5].antecedent[1]


def test_memo_is_read_only_where_a_top_level_formula_starts(tmp_path,
                                                            monkeypatch):
    looked = []  # (depth, the token before the text) of every look-up
    match = _Parser._match

    def recording(self, pos):
        looked.append((self.depth, self.tokens[self.i - 1].kind))
        return match(self, pos)

    monkeypatch.setattr(_Parser, "_match", recording)
    for target in ("lemma1", "prop3", "distributivity"):
        parse_script(_derive(tmp_path, target, 3, True))
    assert looked
    assert {depth for depth, _ in looked} == {0}
    assert not {before for _, before in looked} & {"&", "orop", "*"}


#: one line that mixes every chain operator and parentheses, with operands
#: of at least twelve characters, most of them sharing their first twelve
MIXED = ("G, Pppppppppppp(a) & Pppppppppppp(b) & Pppppppppppp(c) \\/ "
         "(Pppppppppppp(d) & Pppppppppppp(e) * Qqqqqqqqqqqq(f) \\/ "
         "Pppppppppppp(g)) * Rrrrrrrrrrrr(h) |- Rrrrrrrrrrrr(i) * "
         "(Qqqqqqqqqqqq(j) \\/ Rrrrrrrrrrrr(k) & Pppppppppppp(l)) & "
         "Qqqqqqqqqqqq(m) \\/ Rrrrrrrrrrrr(n)")
#: the memo after MIXED as the reading with one parse per operator level
#: kept it: its keys in the order first met, each with its spans, longest
#: first, of the first texts read under it
MIXED_SPANS = [
    ("Pppppppppppp", [(3, 54), (21, 54), (39, 54), (77, 92)]),
    ("Qqqqqqqqqqqq", [(171, 223), (95, 129), (227, 242)]),
    ("(Ppppppppppp", [(58, 130)]),
    ("Rrrrrrrrrrrr", [(152, 261), (190, 223), (133, 148), (246, 261)]),
    ("(Qqqqqqqqqqq", [(170, 261), (170, 242)]),
]


def test_memo_keeps_each_chain_suffix_in_the_order_read():
    memo = {}
    p = _Parser(MIXED, 1, memo)
    p.read(p.parse_sequent)
    assert [(key, [(start, end) for _, start, end, _ in bucket])
            for key, bucket in memo.items()] == MIXED_SPANS
    for bucket in memo.values():
        for _, start, end, node in bucket:
            assert node == parse_formula(MIXED[start:end])


def test_memo_respects_the_nesting_limit_where_a_text_is_reused():
    deep = "(" * 60 + "A(<t1, 1/2>)" + ")" * 60
    prefix = "step 2 weaken_l from 1 :: G, " + "(" * 50
    text = (f"step 1 hypothesis :: G |- {deep}\n"
            f"{prefix}{deep}{')' * 50} |- {deep}\n")
    with pytest.raises(DslSyntaxError) as err:
        parse_script(text)
    assert (err.value.line, err.value.column) == (2, len(prefix) + 51)
    assert err.value.message == "formula nested deeper than 100 levels"


@pytest.mark.parametrize("text,line,column,character", [
    # a line-level error after it
    ("domain D&' = { <t, 1> }\n", 1, 10, "'"),
    # a parse error before it
    ("step 1 hypothesis :: G |- A(x) B(x) ?\n", 1, 37, "?"),
    # after a text taken from the memo
    ("step 1 hypothesis :: G |- A(<t1, 1/2>) & B(<t2, 1/2>)\n"
     "step 3 weaken_l from 2 :: G, A(<t1, 1/2>) & B(<t2, 1/2>) ! |- A(x)\n",
     2, 58, "!"),
])
def test_a_bad_character_is_reported_first(plain_reading, text, line,
                                           column, character):
    with pytest.raises(DslSyntaxError) as err:
        parse_script(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert err.value.message == f"unexpected character {character!r}"
    assert plain_reading(text) == _reading(text)
