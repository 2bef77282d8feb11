"""Factorization of basis diagrams into generator words."""

from __future__ import annotations

import functools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlh.algebra import AlgebraElement, evaluate_word
from tlh.diagram import Diagram, HalfDiagram, enumerate_diagrams, generator_U
from tlh.factor import FactorizationError, factorize

VALID = {"1", "alpha", "beta", "epsilon", "zeta"}


def assert_valid_word(word, m):
    for tok in word:
        assert tok in VALID or (tok.startswith("U") and 1 <= int(tok[1:]) <= m - 1)


def test_identity_factors_to_empty_word():
    for m in (3, 4, 5):
        d = enumerate_diagrams(m)[0]
        assert d.is_identity
        assert factorize(d) == []


@pytest.mark.parametrize("d", ["x", None, generator_U(1, 3).north])
def test_factorize_rejects_an_argument_that_is_not_a_diagram(d):
    with pytest.raises(ValueError, match="^factorize needs a Diagram"):
        factorize(d)


def test_generators_factor_to_themselves():
    for m in (3, 4, 5):
        for i in range(1, m):
            assert factorize(generator_U(i, m)) == [f"U{i}"]


def test_frozen_words_on_three_strands():
    h_star = HalfDiagram(3, ((1, 2, 1),))
    h_plain = HalfDiagram(3, ((2, 3, 0),))
    cases = {
        (h_star, h_plain, True): ["U1", "U2"],
        (h_plain, h_star, True): ["U2", "U1"],
        (h_star, h_star, True): ["U1", "beta"],
        (h_plain, h_plain, True): ["U2", "alpha"],
        (h_star, h_plain, False): ["U1", "zeta"],
        (h_plain, h_star, False): ["U2", "epsilon"],
    }
    for (north, south, bullet), expected in cases.items():
        assert factorize(Diagram(north, south, bullet)) == expected


def test_frozen_word_with_nested_cap():
    d = Diagram(
        HalfDiagram(4, ((1, 4, 1), (2, 3, 0))),
        HalfDiagram(4, ((1, 2, 1), (3, 4, 0))),
    )
    assert factorize(d) == ["U2", "U1", "U3"]


def test_all_diagrams_round_trip_small():
    for m in (2, 3, 4, 5):
        for d in enumerate_diagrams(m):
            word = factorize(d)
            assert_valid_word(word, m)
            assert evaluate_word(word, m) == AlgebraElement.from_diagram(d)


def test_random_diagrams_round_trip_m6():
    rng = random.Random(20260825)
    diagrams = enumerate_diagrams(6)
    for d in rng.sample(diagrams, 60):
        word = factorize(d)
        assert_valid_word(word, 6)
        assert evaluate_word(word, 6) == AlgebraElement.from_diagram(d)


def test_star_of_factorization():
    # the reversed, alpha/beta-swapped word factors the flipped diagram
    rng = random.Random(7)
    swap = {"alpha": "beta", "beta": "alpha"}
    for d in rng.sample(enumerate_diagrams(5), 40):
        word = factorize(d)
        starred = [swap.get(t, t) for t in reversed(word)]
        assert evaluate_word(starred, 5) == AlgebraElement.from_diagram(d.star())


def test_factorization_error_is_exported():
    assert issubclass(FactorizationError, Exception)


def test_planner_invariants_raise():
    from tlh.factor import _plan_flat, _seed_word

    with pytest.raises(FactorizationError, match="flat"):
        _plan_flat(HalfDiagram(4, ((1, 4, 0), (2, 3, 0))))
    with pytest.raises(FactorizationError):
        _seed_word(2, 0, True, False, False)


def test_factorize_reports_a_word_that_does_not_evaluate_to_the_diagram(monkeypatch):
    # the planner's word is checked by evaluation before it is returned: a seed word missing its
    # last token makes the bulleted U1 shape come out without its bullet
    import tlh.factor

    real, half = tlh.factor._seed_word, HalfDiagram(3, ((1, 2, 1),))
    monkeypatch.setattr(tlh.factor, "_seed_word", lambda *args: real(*args)[:-1])
    d = Diagram(half, half, bullet=True)
    with pytest.raises(FactorizationError, match=re.escape(f"word U1 evaluates to {evaluate_word(['U1'], 3)}, not to {d}")):
        factorize(d)


basis = functools.cache(enumerate_diagrams)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(0, len(basis(7)) - 1))
def test_factorize_round_trip_property_m7(index):
    d = basis(7)[index]
    word = factorize(d)
    assert_valid_word(word, 7)
    assert evaluate_word(word, 7) == AlgebraElement.from_diagram(d)
