"""Seeded random corpora for the property suites.

RFOD_SEED in the environment fixes every randomized corpus; the default
seed is 0 so test runs are reproducible out of the box.
"""
from __future__ import annotations

import os
import random
from fractions import Fraction

from rfod.syntax.ast import (
    And, Atom, Bot, Bowtie, ContextVar, Correlated, Domain, Eq, Exists,
    Forall, Formula, Member, Neq, Or, Outcome, Sequent, Sharp, Star, Var,
)

VAR_NAMES = ("z", "y", "w", "v", "u1", "u2")
PRED_NAMES = ("A", "B", "C", "A'", "P")
DOMAIN_NAMES = ("D", "D'", "DS", "DZ", "E")
STATE_LABELS = ("s0", "s1", "t1", "t2", "up_y")
KEYWORDS = ("forall", "exists", "bowtie", "in", "bot")
NAME_KINDS = ("keyword", "sharp", "not_identifier", "valid")


def seed_from_env(default: int = 0) -> int:
    return int(os.environ.get("RFOD_SEED", default))


def make_rng(salt: int = 0) -> random.Random:
    """RNG seeded from RFOD_SEED, salted per call site."""
    return random.Random(seed_from_env() * 1_000_003 + salt)


def random_term(rng: random.Random, vars_in_scope=VAR_NAMES):
    roll = rng.random()
    if roll < 0.55 and vars_in_scope:
        return Var(rng.choice(tuple(vars_in_scope)))
    if roll < 0.8:
        return Sharp(rng.choice(STATE_LABELS))
    denominator = rng.choice((2, 3, 4, 5))
    numerator = rng.randint(1, denominator)
    return Outcome(rng.choice(STATE_LABELS), Fraction(numerator, denominator))


def random_formula(rng: random.Random, depth: int = 3,
                   vars_in_scope=VAR_NAMES) -> Formula:
    if depth <= 0 or rng.random() < 0.35:
        kind = rng.randrange(5)
        if kind == 0:
            arity = rng.choice((1, 1, 2))
            args = tuple(random_term(rng, vars_in_scope)
                         for _ in range(arity))
            return Atom(rng.choice(PRED_NAMES), args)
        if kind == 1:
            return Member(random_term(rng, vars_in_scope),
                          rng.choice(DOMAIN_NAMES))
        if kind == 2:
            return Eq(random_term(rng, vars_in_scope),
                      random_term(rng, vars_in_scope))
        if kind == 3:
            return Neq(random_term(rng, vars_in_scope),
                       random_term(rng, vars_in_scope))
        return Bot(rng.choice((None, "Y", "Z")))
    kind = rng.randrange(6)
    if kind < 3:
        cls = (And, Or, Star)[kind]
        return cls(random_formula(rng, depth - 1, vars_in_scope),
                   random_formula(rng, depth - 1, vars_in_scope))
    binder = rng.choice(("x", "x'", "q"))
    inner = tuple(dict.fromkeys((*vars_in_scope, binder)))
    if kind < 5:
        cls = Forall if kind == 3 else Exists
        return cls(binder, rng.choice(DOMAIN_NAMES),
                   random_formula(rng, depth - 1, inner))
    return Bowtie(binder, rng.choice(DOMAIN_NAMES),
                  random_formula(rng, depth - 1, inner),
                  random_formula(rng, depth - 1, inner))


def random_sequent(rng: random.Random, max_items: int = 3) -> Sequent:
    antecedent = []
    if rng.random() < 0.5:
        antecedent.append(ContextVar(rng.choice(("G", "G'", "Delta"))))
    for _ in range(rng.randrange(max_items)):
        antecedent.append(random_formula(rng, 2))
    succedent = []
    n = rng.randrange(max_items + 1)
    for _ in range(n):
        succedent.append(random_formula(rng, 2))
    if succedent and rng.random() < 0.2:
        left = random_formula(rng, 1)
        right = random_formula(rng, 1)
        succedent[-1] = Correlated(rng.choice(("S", "T")), left, right)
    return Sequent(tuple(antecedent), tuple(succedent))


def random_dual_fragment_sequent(rng: random.Random) -> Sequent:
    """Members-first sequent inside the dualizable fragment."""

    def fragment_formula(depth: int) -> Formula:
        if depth <= 0 or rng.random() < 0.4:
            kind = rng.randrange(3)
            if kind == 0:
                return Atom(rng.choice(PRED_NAMES),
                            (random_term(rng),))
            if kind == 1:
                return Eq(random_term(rng), random_term(rng))
            return Neq(random_term(rng), random_term(rng))
        kind = rng.randrange(4)
        if kind == 0:
            return And(fragment_formula(depth - 1), fragment_formula(depth - 1))
        if kind == 1:
            return Or(fragment_formula(depth - 1), fragment_formula(depth - 1))
        binder = rng.choice(("x", "x'"))
        cls = Forall if kind == 2 else Exists
        return cls(binder, rng.choice(DOMAIN_NAMES),
                   fragment_formula(depth - 1))

    members = [Member(Var(rng.choice(VAR_NAMES)), rng.choice(DOMAIN_NAMES))
               for _ in range(rng.randrange(2))]
    rest = [fragment_formula(2) for _ in range(rng.randrange(3))]
    succ = [fragment_formula(2) for _ in range(rng.randrange(3))]
    return Sequent(tuple(members + rest), tuple(succ))


def random_domain(rng: random.Random, name: str = "D") -> Domain:
    m = rng.choice((1, 2, 3, 4))
    if m == 1:
        return Domain(name, (Sharp("t1"),),
                      kind=rng.choice(("singleton", "measured")))
    cuts = sorted(rng.sample(range(1, 24), m - 1))
    parts = []
    prev = 0
    for c in cuts + [24]:
        parts.append(Fraction(c - prev, 24))
        prev = c
    elements = tuple(Outcome(f"t{i + 1}", p) for i, p in enumerate(parts))
    return Domain(name, elements)


def random_probability_list(rng: random.Random, valid: bool = True) -> list:
    m = rng.choice((2, 3, 4))
    cuts = sorted(rng.sample(range(1, 48), m - 1))
    parts = []
    prev = 0
    for c in cuts + [48]:
        parts.append(Fraction(c - prev, 48))
        prev = c
    if not valid:
        bump = Fraction(rng.choice((1, 2, 3)), 100)
        parts[0] = parts[0] + bump if rng.random() < 0.5 else max(
            Fraction(1, 1000), parts[0] - bump)
    return parts


def random_name(rng: random.Random, kind: str) -> str:
    """A seeded candidate name of one of NAME_KINDS: a keyword, an
    identifier ending in ``^f``, a text that is no identifier, or a valid
    name (an identifier that is neither)."""
    if kind == "keyword":
        return rng.choice(KEYWORDS)
    head = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"
    name = rng.choice(head) + "".join(
        rng.choice(head + "0123456789'^") for _ in range(rng.randrange(5)))
    if kind == "sharp":
        return name + "^f"
    if kind == "not_identifier":
        cut = rng.randrange(len(name) + 1)
        return rng.choice((
            "", rng.choice("0123456789") + name,
            name[:cut] + rng.choice(" -.,;:#()<>{}=|!\"@$%&*+/?é") + name[cut:]))
    if name in KEYWORDS or name.endswith("^f"):
        return name + "1"
    return name
