"""Every whole-structure operation on inputs thousands of levels deep.

The operations run under a recursion limit only a little above the depth
the test itself is called at, so one that recurses per node fails at
once instead of passing on a generous default limit.
"""
import sys
import tracemalloc
from contextlib import contextmanager

from rfod.calculus import (
    Derivation, RuleId, TheoryConfig, parse_script, serialize_derivation,
)
from rfod.syntax import (
    And, Atom, Forall, Sequent, Sharp, Var, alpha_eq, bound_vars, free_vars,
    parse_formula, render, render_sequent, subst_formula, walk,
)
from rfod.syntax import ast, parser
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


def _nested(names="xyz", depth=3000):
    f = Atom("A", (*map(Var, names), Var("w")))
    for i in range(depth):
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


def test_capture_renaming_enters_each_node_a_bounded_number_of_times(
        monkeypatch):
    """``w := x`` under n nested ``forall x in D .`` renames every binder.
    Every traversal reads a node's children through the shape table, so
    counting those reads counts the nodes entered: linear in n, where a
    free-variable walk per renamed binder would make it quadratic."""
    reads = [0]
    for cls in (Forall, Atom):
        shape, remake = ast._SHAPES[cls]

        def counted(n, shape=shape):
            reads[0] += 1
            return shape(n)
        monkeypatch.setitem(ast._SHAPES, cls, (counted, remake))

    def nested(var, free, depth):
        f = Atom("A", (Var(var), Var(free)))
        for _ in range(depth):
            f = Forall(var, "D", f)
        return f

    def nodes_entered(depth):
        f = nested("x", "w", depth)
        reads[0] = 0
        renamed = subst_formula(f, "w", Var("x"))
        count = reads[0]
        assert alpha_eq(renamed, nested("y", "x", depth))
        return count

    small, large = nodes_entered(100), nodes_entered(1000)
    assert large <= 5 * 1001
    assert large <= 11 * small


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


def _left_chain():
    f = Atom("A", (Var("x0"),))
    for i in range(1, 3000):
        f = And(f, Atom("A", (Var(f"x{i}"),)))
    return f


def test_a_deep_script_serializes_in_memory_linear_in_its_text(monkeypatch):
    """The printer's memo keeps the text of each sequent item and leaf, not
    of every nested node: that would copy the 3000-deep chain's text once
    per level, many times the script's size."""
    chain, binders = _left_chain(), _nested(depth=1000)
    node = Derivation(Sequent((chain,), (binders,)), RuleId.HYPOTHESIS)
    for k in range(2, 51):
        extra = Atom("B", (Var(f"y{k}"),))
        node = Derivation(Sequent((chain, extra), (binders,)),
                          RuleId.WEAKEN_L, params={"position": 1},
                          premises=(node,))
    with shallow_stack():
        tracemalloc.start()
        try:
            text = serialize_derivation(node)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    lines = text.splitlines()
    steps = list(node.walk())
    assert len(lines) == len(steps) == 50
    assert peak < 10 * len(text.encode())
    assert [line.split(" :: ")[1] for line in lines] == \
        [render_sequent(s.conclusion) for s in steps]
    # read back past the parser's nesting limit, which guards untrusted text
    monkeypatch.setattr(parser, "MAX_NESTING", 10_000)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(50_000)
    try:
        read = parse_script(text).steps
    finally:
        sys.setrecursionlimit(limit)
    assert all(alpha_eq(step[-1], s.conclusion)
               for step, s in zip(read, steps))
