"""Parser, printer, substitution and domain invariants."""
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfod.errors import (
    DomainError, DslSyntaxError, LookupFailure, SubstitutionError,
)
from rfod.syntax import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, Domain, DomainTable, Eq,
    Exists, Forall, Member, Neq, Or, Outcome, Sequent, Sharp, Star, Term, Var,
    alpha_eq, bound_vars, children, free_vars, forgetful_formula, fresh_var,
    map_children, parse_formula, parse_sequent, parse_term, render,
    render_sequent, replace_term_occurrences, subst_formula, substitute,
    walk,
)
from rfod.calculus import TheoryConfig, dualize
from rfod.theorems import derive_lemma1, schematic_domain

from gen import (
    make_rng, random_formula, random_probability_list, random_sequent,
)


def test_parse_context_var_and_membership():
    s = parse_sequent("G, z in D |- A(z)")
    assert s.antecedent == (ContextVar("G"), Member(Var("z"), "D"))
    assert s.succedent == (Atom("A", (Var("z"),)),)


def test_parse_closed_universal():
    s = parse_sequent("|- forall x in D . A(x)")
    assert s.antecedent == ()
    assert s.succedent == (Forall("x", "D", Atom("A", (Var("x"),))),)


def test_parse_correlated_comma():
    s = parse_sequent("G, z in DS |- A(z) ,_S A'(z)")
    assert len(s.succedent) == 1
    slot = s.succedent[0]
    assert isinstance(slot, Correlated)
    assert slot.label == "S"
    assert slot.left == Atom("A", (Var("z"),))
    assert slot.right == Atom("A'", (Var("z"),))


def test_render_examples():
    assert render(Forall("x", "D", Atom("A", (Var("x"),)))) == \
        "forall x in D . A(x)"
    assert render(Outcome("up_y", Fraction(1, 2))) == "<up_y, 1/2>"
    assert render(Bot("Y")) == "bot_Y"


def test_render_matches_golden():
    # seeded with fixed generators, not RFOD_SEED, so the text is pinned
    lines = []
    for k in range(100):
        rng = random.Random(k)
        lines.append(render(random_sequent(rng, 4)))
        lines.append(render(random_formula(rng, 4)))
    golden = Path(__file__).parent / "golden" / "render.txt"
    assert "\n".join(lines) + "\n" == golden.read_text()


def test_render_takes_deep_formulas():
    atom = Atom("A", (Var("x"),))
    chain = atom
    nested = atom
    for _ in range(5000):
        chain = And(chain, atom)
        nested = Forall("x", "D", nested)
    assert render(chain) == ("(" * 4999 + "A(x)" + " & A(x))" * 4999
                             + " & A(x)")
    assert render(Sequent((), (nested,))) == ("|- " + "forall x in D . " * 5000
                                              + "A(x)")


def test_render_parse_identity_on_spec_strings():
    for text in (
        "G, z in D |- A(z)",
        "z in {u} |- z = u",
        "t != t |-",
        "G |- A(z) ,_S A'(z)",
        "|- forall x in D . A(x) & B(x)",
        "z != t1 & z != t2, y in D |- z != y",
        "G |- A(x) \\/ B(x) * C(y)",
    ):
        s = parse_sequent(text)
        assert alpha_eq(parse_sequent(render(s)), s)


def test_syntax_error_carries_position():
    with pytest.raises(DslSyntaxError) as err:
        parse_sequent("G, z in |- A(z)")
    assert err.value.line == 1
    assert err.value.column > 0


def test_lookup_failures_with_declarations():
    table = DomainTable([Domain("D", (Sharp("t1"),), kind="singleton")])
    parse_sequent("z in D |- A(z)", table=table, predicates={"A": 1})
    with pytest.raises(LookupFailure):
        parse_sequent("z in E |- A(z)", table=table)
    with pytest.raises(LookupFailure):
        parse_sequent("z in D |- B(z)", table=table, predicates={"A": 1})
    with pytest.raises(LookupFailure):
        parse_sequent("z in D |- A(z, z)", table=table, predicates={"A": 1})


def test_sharp_equals_probability_one_outcome():
    assert Outcome("s", Fraction(1)) == Sharp("s")
    assert hash(Outcome("s", Fraction(1))) == hash(Sharp("s"))
    assert Outcome("s", Fraction(1, 2)) != Sharp("s")
    assert Outcome("s", Fraction(1, 2)) != Outcome("s", Fraction(1, 3))
    assert Var("s") != Sharp("s")
    # probability participates in formula identity too
    assert Member(Outcome("s", Fraction(1)), "D") == Member(Sharp("s"), "D")


def test_equality_and_hash_are_structural_at_any_depth():
    d = schematic_domain("D", 1200)
    root = derive_lemma1(None, "A", d,
                         cfg=TheoryConfig(focused_domains=frozenset({"D"})))
    (leaf,) = [n.conclusion for n in root.walk()
               if n.rule.value == "hypothesis"]
    back = parse_sequent(render_sequent(leaf))
    assert back is not leaf
    assert back == leaf
    assert hash(back) == hash(leaf)
    assert back != Sequent(leaf.antecedent, (leaf.succedent[0].right,))


@pytest.mark.parametrize("a,b", [
    # the binder's variable counts, though the two are alpha-equal
    ("forall x in D . A(x)", "forall y in D . A(y)"),
    # the class counts
    ("A(x) & B(x)", "A(x) \\/ B(x)"),
    ("forall x in D . A(x)", "exists x in D . A(x)"),
    # the head counts
    ("A(x)", "B(x)"),
    ("x in D", "x in E"),
    ("bot_X", "bot_Y"),
    ("A(x, y)", "A(x)"),
])
def test_unequal_formulas(a, b):
    fa, fb = parse_formula(a), parse_formula(b)
    assert fa != fb and not fa == fb
    assert fa == parse_formula(a) and hash(fa) == hash(parse_formula(a))
    assert hash(fa) != hash(fb)


def test_equal_terms_make_equal_formulas():
    a = parse_sequent("G, A(<s, 1>) |- x = #s")
    b = parse_sequent("G, A(#s) |- x = <s, 1>")
    assert a == b and hash(a) == hash(b)
    assert a != parse_sequent("G, A(#s) |- x = <s, 1/2>")
    assert parse_sequent("G |- A(x)") != parse_sequent("G' |- A(x)")
    assert parse_sequent("G, A(x) |- ") != parse_sequent("G |- A(x)")
    assert parse_sequent("G |- A(x) ,_S B(x)") != \
        parse_sequent("G |- A(x) ,_T B(x)")


def test_free_vars():
    assert free_vars(Atom("A", (Var("z"),))) == {"z"}
    assert free_vars(Forall("x", "D", Atom("A", (Var("x"),)))) == frozenset()
    assert free_vars(Star(Atom("A", (Var("z"),)),
                          Atom("A'", (Var("y"),)))) == {"z", "y"}
    assert free_vars(ContextVar("G")) == frozenset()


def test_substitute_plain():
    t1 = Outcome("t1", Fraction(1, 2))
    assert substitute(Atom("A", (Var("z"),)), "z", t1) == Atom("A", (t1,))


def test_substitute_forgetful_membership_and_atom():
    out = substitute(Member(Var("z"), "DZ"), "z", Sharp("s_i"),
                     mode="forgetful")
    assert out == Member(Sharp("s_i"), "DZ^f")
    out = substitute(Atom("A", (Var("z"),)), "z", Sharp("s_i"),
                     mode="forgetful")
    assert out == Atom("A^f", (Sharp("s_i"),))


def test_substitute_rejects_open_and_non_sharp():
    with pytest.raises(SubstitutionError):
        substitute(Atom("A", (Var("z"),)), "z", Var("y"))
    with pytest.raises(SubstitutionError):
        substitute(Atom("A", (Var("z"),)), "z",
                   Outcome("s", Fraction(1, 2)), mode="forgetful")


def test_capture_avoidance():
    body = Forall("x", "D", Eq(Var("x"), Var("z")))
    out = substitute(body, "z", Sharp("u"))
    assert out == Forall("x", "D", Eq(Var("x"), Sharp("u")))
    shadowed = Forall("z", "D", Atom("A", (Var("z"),)))
    assert substitute(shadowed, "z", Sharp("u")) == shadowed


def test_alpha_equivalence():
    a = Forall("x", "D", Atom("A", (Var("x"),)))
    b = Forall("y", "D", Atom("A", (Var("y"),)))
    assert alpha_eq(a, b)
    assert a != b
    assert not alpha_eq(a, Forall("y", "E", Atom("A", (Var("y"),))))
    assert not alpha_eq(Atom("A", (Var("x"),)), Atom("A", (Var("y"),)))


@pytest.mark.parametrize("antecedent,succedent", [
    (("G", "G"), ()),
    (("G", "G'", "G"), ("G",)),
    (("G",), ("G", "Delta", "G")),
])
def test_a_context_variable_appears_once_on_a_side(antecedent, succedent):
    with pytest.raises(DomainError) as err:
        Sequent(tuple(map(ContextVar, antecedent)),
                tuple(map(ContextVar, succedent)))
    assert str(err.value) == "context variable G repeated on one side"
    assert Sequent((ContextVar("G"), ContextVar("G'")), (ContextVar("G"),))


def test_domain_invariants():
    half = Fraction(1, 2)
    Domain("D", (Outcome("a", half), Outcome("b", half)))
    with pytest.raises(DomainError):
        Domain("D", ())
    with pytest.raises(DomainError):
        Domain("D", (Outcome("a", half), Outcome("a", half)))
    with pytest.raises(DomainError):
        Domain("D", (Outcome("a", half), Outcome("b", Fraction(1, 3))))
    with pytest.raises(DomainError):
        Domain("D", (Outcome("a", half), Outcome("b", half)),
               kind="singleton")
    with pytest.raises(DomainError):
        Domain("D", (Outcome("a", Fraction(3, 4)), Outcome("b", Fraction(1, 4))),
               kind="uniform")


def test_probability_sum_tolerance():
    rng = make_rng(11)
    for _ in range(200):
        good = random_probability_list(rng, valid=True)
        Domain("D", tuple(Outcome(f"s{i}", p) for i, p in enumerate(good)))
        bad = random_probability_list(rng, valid=False)
        with pytest.raises(DomainError):
            Domain("D", tuple(Outcome(f"s{i}", p) for i, p in enumerate(bad)))


def test_probability_mass_is_exact():
    with pytest.raises(DomainError):
        Domain("D", (Outcome("a", 1 / 2), Outcome("b", 1 / 2 + 10**-10)))


def test_seeded_corpus_does_not_depend_on_the_hash_seed():
    code = ("from gen import make_rng, random_sequent\n"
            "from rfod.syntax import render\n"
            "rng = make_rng(3)\n"
            "for _ in range(200):\n"
            "    print(render(random_sequent(rng)))\n")
    corpora = []
    for hash_seed in ("1", "2"):
        # gen.py lives beside this file
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(Path(__file__).parent), *sys.path]))
        corpora.append(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True).stdout)
    assert corpora[0] == corpora[1]
    assert len(corpora[0].splitlines()) == 200


def test_singleton_literal_name_holds_exactly_its_singleton():
    half = Fraction(1, 2)
    assert Domain("{u}", (Sharp("u"),)).elements == (Sharp("u"),)
    assert Domain("{u}", (Outcome("u", 1),), kind="singleton").labels == ("u",)
    for elements in ((Outcome("a", half), Outcome("b", half)), (Sharp("v"),)):
        with pytest.raises(DomainError, match="holds exactly"):
            Domain("{u}", elements)


def test_singleton_literal_resolution():
    table = DomainTable()
    dom = table.resolve("{u}")
    assert dom.kind == "singleton"
    assert dom.elements == (Sharp("u"),)
    with pytest.raises(DomainError):
        table.resolve("Missing")


def test_parser_roundtrip_corpus():
    rng = make_rng(7)
    for _ in range(300):
        s = random_sequent(rng)
        assert alpha_eq(parse_sequent(render(s)), s)


# -- substitution algebra ------------------------------------------------

_closed_terms = st.one_of(
    st.sampled_from([Sharp("a"), Sharp("b"), Outcome("c", Fraction(1, 2)),
                     Outcome("d", Fraction(1, 4))]))


@st.composite
def _formulas(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            return Atom(draw(st.sampled_from("AB")),
                        (draw(st.sampled_from([Var("v1"), Var("v2"),
                                               Sharp("a")])),))
        if kind == 1:
            return Member(draw(st.sampled_from([Var("v1"), Var("v2")])), "D")
        return Eq(draw(st.sampled_from([Var("v1"), Var("v2")])), Var("v1"))
    cls = draw(st.sampled_from([And, Or, Star]))
    return cls(draw(_formulas(depth - 1)), draw(_formulas(depth - 1)))


@settings(max_examples=200, deadline=None)
@given(f=_formulas(), t1=_closed_terms, t2=_closed_terms)
def test_substitution_of_distinct_variables_commutes(f, t1, t2):
    left = substitute(substitute(f, "v1", t1), "v2", t2)
    right = substitute(substitute(f, "v2", t2), "v1", t1)
    assert left == right


@settings(max_examples=200, deadline=None)
@given(f=_formulas(), t=_closed_terms)
def test_substitution_removes_the_variable(f, t):
    assert free_vars(substitute(f, "v1", t)) == free_vars(f) - {"v1"}


@settings(max_examples=200, deadline=None)
@given(f=_formulas(), t=_closed_terms)
def test_render_parse_is_structural_identity(f, t):
    for g in (f, substitute(f, "v1", t)):
        assert parse_formula(render(g)) == g


# -- binders ---------------------------------------------------------------

_VARS = ("x", "y", "v")
_terms = st.one_of(st.sampled_from([Var(n) for n in _VARS]), _closed_terms)


@st.composite
def _binder_formulas(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return Atom(draw(st.sampled_from("AB")),
                        tuple(draw(st.lists(_terms, min_size=1, max_size=2))))
        if kind == 1:
            return Member(draw(_terms), draw(st.sampled_from(["D", "E"])))
        if kind == 2:
            return draw(st.sampled_from([Eq, Neq]))(draw(_terms), draw(_terms))
        return Bot(draw(st.sampled_from([None, "Y"])))
    cls = draw(st.sampled_from([And, Or, Star, Forall, Exists, Bowtie]))
    sub = [draw(_binder_formulas(depth - 1))
           for _ in range(1 if cls in (Forall, Exists) else 2)]
    if cls in (And, Or, Star):
        return cls(*sub)
    return cls(draw(st.sampled_from(_VARS)), draw(st.sampled_from(["D", "E"])),
               *sub)


@st.composite
def _binder_sequents(draw):
    antecedent = [ContextVar("G")] + draw(st.lists(_binder_formulas(),
                                                   max_size=2))
    succedent = draw(st.lists(_binder_formulas(), max_size=2))
    if draw(st.booleans()):
        succedent.append(Correlated("S", draw(_binder_formulas(2)),
                                    draw(_binder_formulas(2))))
    return Sequent(tuple(antecedent), tuple(succedent))


def _rename_bound(node, fresh):
    """node with every binder renamed to a name never used before."""
    node = map_children(node, lambda c: _rename_bound(c, fresh))
    if isinstance(node, (Forall, Exists, Bowtie)):
        new = f"r{next(fresh)}"
        return type(node)(new, node.domain, *(
            subst_formula(c, node.var, Var(new)) for c in children(node)))
    return node


@settings(max_examples=200, deadline=None)
@given(s=_binder_sequents())
def test_renaming_bound_variables_keeps_alpha_and_free_vars(s):
    renamed = _rename_bound(s, iter(range(10**6)))
    assert alpha_eq(renamed, s) and alpha_eq(s, renamed)
    assert free_vars(renamed) == free_vars(s)
    assert not bound_vars(renamed) & set(_VARS)


@settings(max_examples=200, deadline=None)
@given(s=_binder_sequents())
def test_render_parse_is_structural_identity_with_binders(s):
    assert parse_sequent(render(s)) == s


@settings(max_examples=200, deadline=None)
@given(f=_binder_formulas(), v=st.sampled_from(_VARS), t=_terms)
def test_substitution_shares_what_it_does_not_touch(f, v, t):
    out = subst_formula(f, v, t)
    if v not in free_vars(f):
        assert out is f
    else:
        assert v not in free_vars(out) or t == Var(v)


def test_substitution_renames_a_capturing_binder():
    f = Forall("x", "D", Atom("A", (Var("x"), Var("v"))))
    out = subst_formula(f, "v", Var("x"))
    assert out.var != "x"
    assert alpha_eq(out, Forall("w", "D", Atom("A", (Var("w"), Var("x")))))
    assert free_vars(out) == {"x"}
    # a binder named like the fresh-name supply's first choice
    f = Forall("z", "D", Atom("A", (Var("z"), Var("v"))))
    out = subst_formula(f, "v", Var("z"))
    assert out.var != "z" and free_vars(out) == {"z"}


def test_shared_body_under_different_binders_is_not_alpha_equal():
    body = Atom("A", (Var("x"),))
    assert not alpha_eq(Forall("x", "D", body), Forall("y", "D", body))
    assert not alpha_eq(Forall("y", "D", body), Forall("x", "D", body))
    assert alpha_eq(Forall("x", "D", body), Forall("x", "D", body))
    assert alpha_eq(body, body)


# -- parser error positions -----------------------------------------------

_PARSERS = {"formula": parse_formula, "sequent": parse_sequent,
            "term": parse_term}


@pytest.mark.parametrize("kind,text,exc,line,column,message", [
    ("formula", "A(x) @ B(x)", DslSyntaxError, 1, 6,
     "unexpected character '@'"),
    ("formula", "A(<t, >)", DslSyntaxError, 1, 7,
     "expected 'rational', found '>'"),
    ("formula", "A(<t, 1/0>)", DslSyntaxError, 1, 7,
     "bad rational literal '1/0'"),
    ("formula", "A(<t, 3/2>)", DslSyntaxError, 1, 3,
     "outcome probability must be in (0, 1], got 3/2"),
    ("formula", "A(<t, 0>)", DslSyntaxError, 1, 3,
     "outcome probability must be in (0, 1], got 0"),
    ("formula", "A(<in, 1/2>)", DslSyntaxError, 1, 4,
     "expected 'ident', found 'in'"),
    ("formula", "A(<t, 1.5>)", DslSyntaxError, 1, 3,
     "outcome probability must be in (0, 1], got 3/2"),
    ("term", "<t, 0.0>", DslSyntaxError, 1, 1,
     "outcome probability must be in (0, 1], got 0"),
    ("formula", "A(<t, 0.5 >, <t, 0.>)", DslSyntaxError, 1, 19,
     "expected '>', found '.'"),
    ("formula", "A(<t 1/2>)", DslSyntaxError, 1, 6,
     "expected ',', found '1/2'"),
    ("formula", "A(<t, 1/2)", DslSyntaxError, 1, 10,
     "expected '>', found ')'"),
    ("formula", "A(x", DslSyntaxError, 1, 4, "expected ')', found ''"),
    ("formula", "A(x) B(x)", DslSyntaxError, 1, 6, "trailing input 'B'"),
    ("formula", "A(x) <t, 1/2>", DslSyntaxError, 1, 6, "trailing input '<'"),
    ("formula", "forall x in . A(x)", DslSyntaxError, 1, 13,
     "expected a domain name, found '.'"),
    ("formula", "x in <t, 1/2>", DslSyntaxError, 1, 6,
     "expected a domain name, found '<'"),
    ("formula", "<t, 1/2> <s, 1/2>", DslSyntaxError, 1, 10,
     "expected 'in', '=' or '!=' after term, found '<'"),
    ("sequent", "G, z in D\n|- A(z) & @", DslSyntaxError, 2, 11,
     "unexpected character '@'"),
    ("sequent", "G -- a comment\n, z in D |- A(z) &", DslSyntaxError, 2, 19,
     "expected a term, found ''"),
    ("term", "<t, 1/2> x", DslSyntaxError, 1, 10, "trailing input 'x'"),
])
def test_parse_error_position_and_message(kind, text, exc, line, column,
                                          message):
    with pytest.raises(exc) as err:
        _PARSERS[kind](text)
    assert type(err.value) is exc
    assert getattr(err.value, "line", None) == line
    assert getattr(err.value, "column", None) == column
    assert getattr(err.value, "message", str(err.value)) == message


@pytest.mark.parametrize("kind,text,column", [
    ("formula", "A(x) B(x) ?", 11),
    ("formula", "(A(x) & ) \\/ ~", 14),
    ("term", "x y ?", 5),
    # an error of the sequent as a whole, not of its parse
    ("sequent", "G, G |- A(x) ) ?", 16),
])
def test_a_bad_character_is_reported_first(kind, text, column):
    with pytest.raises(DslSyntaxError) as err:
        _PARSERS[kind](text)
    assert (err.value.line, err.value.column) == (1, column)
    assert err.value.message == f"unexpected character {text[-1]!r}"


@pytest.mark.parametrize("text", [
    "< t ,1/2 >", "<t,1/2>", "<t,\n 1/2>", "<t, -- comment\n 1/2 >",
])
def test_outcome_term_layouts_parse(text):
    assert parse_term(text) == Outcome("t", Fraction(1, 2))



@pytest.mark.parametrize("text", [
    "<t, 0.5>", "<t, .5>", "<t,00.50 >", "<t,\n 0.5>", "<t, -- comment\n 0.5>",
])
def test_decimal_probability_reads_with_or_without_a_leading_digit(text):
    assert parse_term(text) == parse_term("<t, 1/2>")
    assert parse_term(text).prob == Fraction(1, 2)

# -- deep chains -----------------------------------------------------------

def _right_spine(f, cls):
    operands = []
    while isinstance(f, cls):
        operands.append(f.left)
        f = f.right
    return operands + [f]


@pytest.mark.parametrize("op,cls", [("&", And), ("\\/", Or), ("*", Star)])
def test_deep_chains_parse_right_nested(op, cls):
    operands = [Atom(f"A{i % 3}", (Var(f"x{i}"),)) for i in range(3000)]
    text = f" {op} ".join(render(a) for a in operands)
    f = parse_formula(text)
    assert _right_spine(f, cls) == operands
    s = parse_sequent(f"G, {text} |- {text}")
    assert _right_spine(s.antecedent[1], cls) == operands
    assert _right_spine(s.succedent[0], cls) == operands
    assert free_vars(f) == {f"x{i}" for i in range(3000)}
    assert bound_vars(f) == frozenset()
    assert alpha_eq(s.antecedent[1], s.succedent[0])
    assert not alpha_eq(f, parse_formula(text + f" {op} A0(y)"))
    assert _right_spine(parse_formula(render(f)), cls) == operands


def test_syntax_maps_take_deep_chains():
    z = Var("z")
    chain = Atom("A", (z,))
    for i in range(2000):
        chain = And(Atom(f"B{i % 3}", (z,)), chain)
    s = Sequent((Member(z, "D"), chain), (chain,))
    t = Sharp("t")
    assert free_vars(subst_formula(s, "z", t)) == frozenset()
    assert subst_formula(s, "y", t) is s
    measured = forgetful_formula(s, "z", t)
    assert free_vars(measured) == frozenset()
    assert alpha_eq(measured.antecedent[0], Member(t, "D^f"))
    # occurrences count in reading order: 1 + 2001 on the left, then 2001
    last = replace_term_occurrences(s, z, t, positions=[4003])
    assert last.antecedent[1] is chain
    atoms = [n for n in walk(last.succedent[0]) if isinstance(n, Atom)]
    assert atoms[0] is chain.left and alpha_eq(atoms[-1], Atom("A", (t,)))
    assert free_vars(replace_term_occurrences(s, z, t)) == frozenset()
    one_sided = Sequent((Member(z, "D"),), (chain,))
    dual = dualize(one_sided)
    assert isinstance(dual.antecedent[1], Or)
    assert alpha_eq(dualize(dual), one_sided)


# -- the fast paths of alpha_eq and substitution against plain recursions --

_BINDER_CLASSES = (Forall, Exists, Bowtie)


def _parts(n):
    """(class, the fields besides the children, the children) of a node, for
    the reference recursions below; a binder's var is not among them."""
    if isinstance(n, Atom):
        return Atom, (n.pred, len(n.args)), n.args
    if isinstance(n, Member):
        return Member, (n.domain,), (n.term,)
    if isinstance(n, (Eq, Neq, And, Or, Star)):
        return type(n), (), (n.left, n.right)
    if isinstance(n, (Forall, Exists)):
        return type(n), (n.domain,), (n.body,)
    if isinstance(n, Bowtie):
        return Bowtie, (n.domain,), (n.left, n.right)
    if isinstance(n, Correlated):
        return Correlated, (n.label,), (n.left, n.right)
    if isinstance(n, Sequent):
        return Sequent, (len(n.antecedent), len(n.succedent)), \
            n.antecedent + n.succedent
    return type(n), (n.label if isinstance(n, Bot) else n.name,), ()


def _ref_alpha(a, b, rename, env=()):
    """Alpha-equivalence by plain recursion; ``env`` holds the pairs of bound
    names, innermost last.  With ``rename`` off, binders bind one name."""
    if isinstance(a, Var) or isinstance(b, Var):
        if not (isinstance(a, Var) and isinstance(b, Var)):
            return False
        for x, y in reversed(env):
            if x == a.name or y == b.name:
                return x == a.name and y == b.name
        return a.name == b.name
    if isinstance(a, Term) or isinstance(b, Term):
        return isinstance(a, Term) and isinstance(b, Term) and a == b
    (ca, head_a, kids_a), (cb, head_b, kids_b) = _parts(a), _parts(b)
    if ca is not cb or head_a != head_b:
        return False
    if ca in _BINDER_CLASSES:
        if not rename and a.var != b.var:
            return False
        env = env + ((a.var, b.var),)
    return all(_ref_alpha(x, y, rename, env) for x, y in zip(kids_a, kids_b))


def _ref_subst(n, v, t):
    """Capture-avoiding substitution by plain recursion, renaming a
    capturing binder to the name the kernel's fresh-name supply gives."""
    if isinstance(n, Var):
        return t if n.name == v else n
    if isinstance(n, Term):
        return n
    cls, _, kids = _parts(n)
    if cls is Sequent:
        items = [_ref_subst(k, v, t) for k in kids]
        return Sequent(items[:len(n.antecedent)], items[len(n.antecedent):])
    if cls in _BINDER_CLASSES:
        if n.var == v:
            return n
        var = n.var
        if isinstance(t, Var) and t.name == var and v in free_vars(n):
            var = fresh_var(free_vars(n) | {v, t.name})
            kids = [_ref_subst(k, n.var, Var(var)) for k in kids]
        return cls(var, n.domain, *(_ref_subst(k, v, t) for k in kids))
    kids = [_ref_subst(k, v, t) for k in kids]
    if cls is Atom:
        return Atom(n.pred, kids)
    if cls is Member:
        return Member(kids[0], n.domain)
    if cls is Correlated:
        return Correlated(n.label, *kids)
    return cls(*kids) if kids else n


def _sequent_pairs(rng):
    """Pairs of sequents whose items are the same objects, equal rebuilt
    ones, alpha-variants, all but one the same objects, or rotated."""
    for _ in range(300):
        s = random_sequent(rng)
        items = list(s.antecedent + s.succedent)
        k = len(s.antecedent)
        yield s, s
        yield s, Sequent(s.antecedent, s.succedent)
        yield s, _ref_subst(s, "absent", Sharp("s0"))  # formulas rebuilt
        yield s, _rename_bound(s, iter(range(10**6)))
        if items:
            i = rng.randrange(len(items))
            changed = list(items)
            if isinstance(items[i], ContextVar):
                changed[i] = ContextVar(items[i].name + "'")
            else:
                changed[i] = random_formula(rng, 2)
            yield s, Sequent(changed[:k], changed[k:])
            moved = items[1:] + items[:1]
            yield s, Sequent(moved[:k], moved[k:])


def test_alpha_eq_and_equality_agree_with_a_plain_recursion():
    rng = make_rng(41)
    kinds = {True: 0, False: 0}
    for a, b in _sequent_pairs(rng):
        for x, y in ((a, b), (b, a)):
            want = _ref_alpha(x, y, True)
            assert alpha_eq(x, y) is want
            assert (x == y) is _ref_alpha(x, y, False)
            assert alpha_eq(x, y, rename=False) is (x == y)
            kinds[want] += 1
    assert min(kinds.values()) > 100  # both answers are well sampled


def _shares_untouched(orig, out, v):
    """Every subtree of ``orig`` without a free ``v`` is in ``out`` as the
    very same object, down to a binder that substitution renamed."""
    if v not in free_vars(orig):
        return out is orig
    if isinstance(orig, Term):
        return True
    _, _, kids = _parts(orig)
    if type(orig) in _BINDER_CLASSES and out.var != orig.var:
        return True
    return all(_shares_untouched(k, o, v)
               for k, o in zip(kids, _parts(out)[2]))


def test_substitution_agrees_with_a_plain_recursion():
    rng = make_rng(43)
    names = ("z", "y", "w", "x", "x'", "q")
    captured = 0
    for _ in range(600):
        f = random_sequent(rng) if rng.random() < 0.5 else random_formula(rng)
        v = rng.choice(names)
        t = Var(rng.choice(names)) if rng.random() < 0.5 else \
            rng.choice((Sharp("s0"), Outcome("t1", Fraction(1, 3))))
        out = subst_formula(f, v, t)
        want = _ref_subst(f, v, t)
        assert _ref_alpha(out, want, rename=False), (f, v, t)
        assert _shares_untouched(f, out, v), (f, v, t)
        if v in free_vars(f):  # nothing t brings in is captured
            assert free_vars(out) == free_vars(f) - {v} | free_vars(t)
        captured += bound_vars(out) != bound_vars(f)
    assert captured > 0  # some binder was renamed away from capture
