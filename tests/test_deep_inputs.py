"""Every whole-structure operation on inputs thousands of levels deep.

The operations run under a recursion limit only a little above the depth
the test itself is called at, so one that recurses per node fails at
once instead of passing on a generous default limit.
"""
import sys
from contextlib import contextmanager

from rfod.calculus import TheoryConfig
from rfod.syntax import (
    Atom, Forall, Sharp, Var, alpha_eq, bound_vars, free_vars,
    parse_formula, render, subst_formula, walk,
)
from rfod.theorems import derive_lemma1, schematic_domain

HEADROOM = 60  # frames above the caller that an operation may use


@contextmanager
def shallow_stack():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + HEADROOM)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def _chain():
    return parse_formula(" & ".join(f"A(x{i})" for i in range(3000)))


def _nested(names="xyz"):
    f = Atom("A", (*map(Var, names), Var("w")))
    for i in range(3000):
        f = Forall(names[i % 3], "D", f)
    return f


def test_syntax_operations_take_deep_inputs():
    cases = [(_chain(), _chain(), None, 3000),
             (_nested(), _nested(), _nested("uvz"), 3000)]
    sharp = Sharp("s")
    with shallow_stack():
        for f, twin, renamed, size in cases:
            assert f is not twin
            assert f == twin and hash(f) == hash(twin)
            assert repr(f).startswith(f"{type(f).__name__}('")
            assert repr(f) == f"{type(f).__name__}({render(f)!r})"
            assert alpha_eq(f, twin)
            assert free_vars(f) == ({f"x{i}" for i in range(3000)}
                                    if renamed is None else {"w"})
            assert len(bound_vars(f)) == (0 if renamed is None else 3)
            assert sum(isinstance(n, Atom) for n in walk(f)) == (
                size if renamed is None else 1)
            replaced = subst_formula(f, "w", sharp)
            assert (replaced is f) == (renamed is None)
            if renamed is not None:
                assert f != renamed and alpha_eq(f, renamed)
                assert free_vars(replaced) == frozenset()


def test_derivations_compare_by_identity_at_depth():
    domain = schematic_domain("D", 1200)
    cfg = TheoryConfig(focused_domains={"D"})
    a = derive_lemma1(None, "A", domain, cfg=cfg)
    b = derive_lemma1(None, "A", domain, cfg=cfg)
    with shallow_stack():
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2
        text = repr(a)
    assert text.startswith(f"Derivation({a.rule.value}, Sequent('")
    assert len(text) < len(render(a.conclusion)) + 50
