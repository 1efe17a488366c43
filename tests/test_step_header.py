"""The header of a step line, the text before its ``::``: every spelling the
script syntax allows reads to the same step, and every other header is
refused with one message at one place."""
import contextlib
import io
import re
from pathlib import Path

import pytest

from rfod.calculus import parse_script
from rfod.cli import main as cli_main
from rfod.errors import DslSyntaxError
from rfod.syntax import parser

GOLDEN = Path(__file__).parent / "golden"

#: two steps the last step of every case below builds on
PREMISES = "step 1 hypothesis :: G |- A(x)\nstep 2 hypothesis :: G |- B(x)\n"
CONCLUSION = " :: G |- A(x) & B(x)"
CANONICAL = ('step 3 eq_forall_r forward bound=x slot=1 var=z '
             'term="<t1, 1/3>" cut="A(x) & B(y)" domain={u} from 1,2')


def _header(text):
    """(id, rule, direction, params, refs) of the last step of ``text``."""
    return parse_script(text).steps[-1][:5]


@pytest.mark.parametrize("header", [
    CANONICAL.replace(" ", "\t"),
    "  " + CANONICAL,
    CANONICAL.replace("=", " = ").replace("{u}", "{ u }"),
    CANONICAL.replace("bound=x", 'bound="x"').replace("slot=1", 'slot="1"')
    .replace("var=z", 'var = " z "').replace("domain={u}", 'domain="{u}"'),
    CANONICAL.replace("from 1,2", "from 1 , 2"),
    CANONICAL.replace("from 1,2", "from 1 from 2"),
    CANONICAL.replace('cut="A(x) & B(y)"', "cut=A(x)&B(y)"),
    'step 3 eq_forall_r from 1,2 domain={u} cut="A(x) & B(y)" '
    'term="<t1, 1/3>" var=z slot=1 bound=x forward',
    'step 3 eq_forall_r bound=x slot=1 from 1,2 forward var=z '
    'term="<t1, 1/3>" cut="A(x) & B(y)" domain={u}',
    'step\t3\teq_forall_r\tforward\tbound\t=\tx\tslot\t=\t1\tvar\t=\tz\t'
    'term\t=\t"<t1, 1/3>"\tcut\t=\t"A(x) & B(y)"\t'
    'domain\t=\t{u}\tfrom\t1\t,\t2',
])
def test_header_spellings_read_alike(header):
    assert _header(PREMISES + header + CONCLUSION) == \
        _header(PREMISES + CANONICAL + CONCLUSION)


def test_identifier_ids_read_alike():
    text = (PREMISES.replace("step 1", "step a").replace("step 2", "step b")
            + CANONICAL.replace("step 3", "step c")
            .replace("from 1,2", "from a, b") + CONCLUSION)
    _, rule, direction, params, _ = _header(PREMISES + CANONICAL + CONCLUSION)
    assert _header(text) == ("c", rule, direction, params, ["a", "b"])


@pytest.mark.parametrize("header,column,message", [
    # no '::'
    ("step 3 identity from 1,2 G |- A(x)", 1,
     "step line needs ':: <sequent>'"),
    ("step 3 bogus from 1,2", 1, "step line needs ':: <sequent>'"),
    ("step 3 identity -- note from 1,2 :: G |- A(x)", 1,
     "step line needs ':: <sequent>'"),
    # a bad character anywhere on the line comes first
    ("step 3 identity $ from 1,2 :: G |- A(x)", 17,
     "unexpected character '$'"),
    ("step 3 bogus from 1,2 $ :: G |- A(x)", 23,
     "unexpected character '$'"),
    ("step 3 identity from 1,2 :: G |- A(x) $", 39,
     "unexpected character '$'"),
    ("step 3 bogus from 1,2 :: G |- A(x) ?", 36,
     "unexpected character '?'"),
    # the start, the rule, each item in turn
    ("step in identity from 1,2 :: G |- A(x)", 1,
     "step line starts 'step <id> <rule>'"),
    ("step 3 :: G |- A(x)", 1, "step line starts 'step <id> <rule>'"),
    ("step 3 bogus foo=1 from 1,2 :: G |- A(x)", 1, "unknown rule bogus"),
    ("step 3 identity foo=1 from 1,2 :: G |- A(x)", 17,
     "unknown parameter foo"),
    ("step 3 identity from :: G |- A(x)", 1, "'from' needs premise ids"),
    ("step 3 identity from 1,2, :: G |- A(x)", 1,
     "'from' needs premise ids"),
    ("step 3 identity from 1 from :: G |- A(x)", 1,
     "'from' needs premise ids"),
    ("step 3 weaken_l position=x from 1,2 :: G |- A(x)", 26,
     "parameter position: expected an integer, found 'x'"),
    ("step 3 weaken_l position=1.5 from 1,2 :: G |- A(x)", 26,
     "parameter position: expected an integer, found '1.5'"),
    ("step 3 identity slot= :: G |- A(x)", 23,
     "parameter slot: expected an integer, found '::'"),
    ("step 3 identity backward = 1 from 1,2 :: G |- A(x)", 26,
     "unexpected token '=' in step line"),
    ('step 3 subst term="<t1, 1/3> from 1,2 :: G |- A(x)', 30,
     "expected '\"', found 'from'"),
    ('step 3 cut cut="A(x) & " from 1,2 :: G |- A(x)', 24,
     "expected a term, found '\"'"),
    ("step 3 identity var=in from 1,2 :: G |- A(x)", 21,
     "expected a domain name, found 'in'"),
    ("step 3 identity domain={ u from 1,2 :: G |- A(x)", 28,
     "expected '}', found 'from'"),
    ("step 3 subst term=<t1, 3/2> from 1,2 :: G |- A(x)", 19,
     "outcome probability must be in (0, 1], got 3/2"),
    ("step 3 identity from 1 2 :: G |- A(x)", 24,
     "unexpected token '2' in step line"),
    ("step 3 identity from 1, , 2 :: G |- A(x)", 25,
     "unexpected token ',' in step line"),
    ("step 3 identity pick=left pick from 1,2 :: G |- A(x)", 27,
     "unexpected token 'pick' in step line"),
    ('step 3 identity "slot"=1 from 1,2 :: G |- A(x)', 17,
     "unexpected token '\"' in step line"),
    ("step 3 identity from 9 foo=1 :: G |- A(x)", 24,
     "unknown parameter foo"),
    ("step 3 weaken_l position=9 position=0 from 1 :: G |- A(x)", 28,
     "repeated parameter position"),
    ('step 3 identity var=z slot=1 var = "z" from 1,2 :: G |- A(x)', 30,
     "repeated parameter var"),
    ("step 3 eq_or_l forward backward from 1,2 :: G |- A(x)", 24,
     "repeated direction"),
    # then the ids
    ("step 1 identity from 9 :: G |- A(x)", 1, "duplicate step id 1"),
    ("step 3 identity from 1,9 :: G |- A(x)", 1,
     "step 3 references unknown step 9"),
])
def test_header_errors(header, column, message):
    with pytest.raises(DslSyntaxError) as err:
        parse_script(PREMISES + header)
    assert (err.value.line, err.value.column, err.value.message) == \
        (3, column, message)


def test_a_step_line_lexes_only_its_conclusion(monkeypatch):
    """The header is read off its pattern: the lexer sees the conclusion and
    no token of ``step``, the id, the rule or a value the pattern holds."""
    lexed = []
    lexemes = parser._lexemes

    def counted(*args):
        for tok in lexemes(*args):
            lexed.append(tok.text)
            yield tok

    monkeypatch.setattr(parser, "_lexemes", counted)
    text = "step 2 hypothesis :: G |- A(x) & B(x)\n"
    parse_script(text)
    assert lexed == ["G", "|-", "A", "(", "x", ")", "&", "B", "(", "x", ")",
                     ""]
    lexed.clear()
    parse_script(text + "step 7 eq_and_r backward pick=left from 2 :: "
                 "G |- A(x)\n")
    assert lexed[12:] == ["G", "|-", "A", "(", "x", ")", ""]


def _respelled(text):
    """``text`` with every step header written with tabs, a tab before
    ``step``, ``key = value`` and spaced ``from`` ids."""
    lines = []
    for line in text.splitlines(keepends=True):
        head, cut, rest = line.partition(" :: ")
        if line.startswith("step ") and cut:
            head = re.sub(r"(\w)=", r"\1 = ", head.replace(" ", "\t"))
            head = re.sub(r"from\t(\w+),", r"from \1 , ", head)
            line = "\t" + head + "\t::\t" + rest
        lines.append(line)
    return "".join(lines)


def _check_output(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["check", str(path)])
    return code, out.getvalue()


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.script")),
                         ids=lambda p: p.stem)
def test_respelled_golden_scripts_check_alike(tmp_path, path):
    text = path.read_text()
    respelled = _respelled(text)
    assert respelled.count("\t") > text.count("\t")
    copy = tmp_path / path.name
    copy.write_text(respelled)
    assert _check_output(copy) == _check_output(path)
