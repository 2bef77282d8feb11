"""Reduction, products, and the defining relations of the diagram algebra."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlh.algebra
from tlh.algebra import (
    AlgebraElement,
    ClosureViolation,
    evaluate_word,
    multiply,
    normal_form,
    normal_form_random,
    positivity_check,
    reduce_tangle,
    special_elements,
    verify_associativity,
    verify_presentation,
)
from tlh.diagram import Diagram, HalfDiagram, enumerate_diagrams, generator_U
from tlh.ring import PHI, GoldenScalar, LaurentPoly
from tlh.tangle import DecoratedTangle, NodeRef, random_tangle

N = lambda i: NodeRef("N", i)
S = lambda i: NodeRef("S", i)
DELTA = LaurentPoly.delta()

# the two admissible 1-cap faces on 3 nodes and the 8 non-identity diagrams
H_STAR = HalfDiagram(3, ((1, 2, 1),))
H_PLAIN = HalfDiagram(3, ((2, 3, 0),))


def D3(north, south, bullet=False) -> Diagram:
    return Diagram(north, south, bullet)


def as_dict(pairs):
    out = {}
    for t, c in pairs:
        out[t] = out.get(t, LaurentPoly.zero()) + c
    return {t: c for t, c in out.items() if not c.is_zero()}


def test_normal_form_loop_weights():
    base = DecoratedTangle(1, 1, frozenset({(N(1), S(1), 0)}))
    for r, weight in [(0, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 5)]:
        t = DecoratedTangle(1, 1, base.arcs, loops=(r,))
        [(out, coeff)] = normal_form(t)
        assert out == base
        assert coeff == LaurentPoly.const(weight) * DELTA
    assert normal_form(DecoratedTangle(1, 1, base.arcs, loops=(1,))) == []
    # several loops multiply out; any single-decorated loop kills everything
    t = DecoratedTangle(1, 1, base.arcs, loops=(0, 4))
    [(_, coeff)] = normal_form(t)
    assert coeff == LaurentPoly.const(2) * DELTA * DELTA
    assert normal_form(DecoratedTangle(1, 1, base.arcs, loops=(0, 1, 4))) == []


def test_normal_form_splits_stacked_decorations():
    for r, f_prev, f_r in [(2, 1, 1), (3, 1, 2), (4, 2, 3), (5, 3, 5)]:
        t = DecoratedTangle(1, 1, frozenset({(N(1), S(1), r)}))
        out = as_dict(normal_form(t))
        plain = DecoratedTangle(1, 1, frozenset({(N(1), S(1), 0)}))
        dec = DecoratedTangle(1, 1, frozenset({(N(1), S(1), 1)}))
        assert out == {plain: LaurentPoly.const(f_prev), dec: LaurentPoly.const(f_r)}


def test_normal_form_returns_a_reduced_tangle_itself():
    t = generator_U(1, 3).tangle.concat(generator_U(2, 3).tangle)
    assert not t.loops and all(r < 2 for _, _, r in t.arcs)
    assert normal_form(t)[0][0] is t
    assert normal_form(t) == [(t, LaurentPoly.one())]


def test_normal_form_matches_random_rule_order():
    rng = random.Random(20260825)
    for _ in range(300):
        m = rng.randint(1, 4)
        t = random_tangle(rng, m, m, max_dec=4, n_loops=rng.randint(0, 2))
        assert as_dict(normal_form(t)) == normal_form_random(t, rng)


def test_the_random_rule_order_rebuilds_each_rewrite_through_the_public_constructor(monkeypatch):
    # the oracle must not share the unchecked store with the closed form it checks
    t = DecoratedTangle(3, 3, frozenset({(N(1), S(1), 3), (N(2), N(3), 2), (S(2), S(3), 0)}), loops=(0, 2, 3))
    expected = dict(normal_form(t))
    assert len(expected) == 4

    def refuse(*args, **kwargs):
        raise AssertionError("normal_form_random stored a tangle unchecked")

    monkeypatch.setattr(DecoratedTangle, "_trusted", refuse)
    for seed in range(5):
        assert normal_form_random(t, random.Random(seed)) == expected


def test_reduce_tangle_requires_square():
    with pytest.raises(ValueError, match="non-square"):
        reduce_tangle(DecoratedTangle(2, 0, frozenset({(N(1), N(2), 0)})))


def test_reduce_tangle_rejects_non_basis_remainder():
    fake = DecoratedTangle(
        3, 3, frozenset({(N(1), N(2), 0), (S(1), S(2), 0), (N(3), S(3), 0)})
    )
    with pytest.raises(ClosureViolation):
        reduce_tangle(fake)


def test_frozen_products_on_three_strands():
    u1 = evaluate_word(["U1"], 3)
    u2 = evaluate_word(["U2"], 3)
    assert u1 * u1 == u1.scale(DELTA)
    assert u2 * u2 == u2.scale(DELTA)
    assert u1 * u2 == AlgebraElement.from_diagram(D3(H_STAR, H_PLAIN, True))
    assert u2 * u1 == AlgebraElement.from_diagram(D3(H_PLAIN, H_STAR, True))
    bullet_u1 = AlgebraElement.from_diagram(D3(H_STAR, H_STAR, True))
    assert u1 * u2 * u1 == u1 + bullet_u1
    # squaring the mixed diagram adds a decoration to its propagating edge
    mixed = AlgebraElement.from_diagram(D3(H_STAR, H_PLAIN))
    assert mixed * mixed == AlgebraElement.from_diagram(D3(H_STAR, H_PLAIN, True))
    assert (u1 * u2) * mixed == mixed + AlgebraElement.from_diagram(D3(H_STAR, H_PLAIN, True))


def special_elements_reference(m: int) -> dict:
    """The special elements as products of the generators: the oracle for the closed forms."""
    one = AlgebraElement.one(m)
    u1 = AlgebraElement.from_diagram(generator_U(1, m))
    u2 = AlgebraElement.from_diagram(generator_U(2, m))
    u12, u21 = u1 * u2, u2 * u1
    return {
        "alpha": u12 - one,
        "beta": u21 - one,
        "epsilon": u12 * u1 - u1.scale(2),
        "zeta": u21 * u2 - u2.scale(2),
    }


@pytest.mark.parametrize("m", range(3, 10))
def test_special_elements_match_the_product_reference(m):
    assert special_elements(m) == special_elements_reference(m)


def counting(monkeypatch, name):
    """Wrap tlh.algebra.<name> and return the list its calls are appended to."""
    calls, real = [], getattr(tlh.algebra, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tlh.algebra, name, wrapper)
    return calls


def test_special_elements_take_no_product(monkeypatch):
    calls = counting(monkeypatch, "multiply")
    special_elements(5)
    assert calls == []


def test_evaluate_word_builds_one_factor_per_distinct_generator(monkeypatch):
    word = "U1 U2 U1 U2 alpha U2".split()
    factors = {f"U{i}": AlgebraElement.from_diagram(generator_U(i, 4)) for i in (1, 2)}
    factors["alpha"] = special_elements_reference(4)["alpha"]
    expected = AlgebraElement.one(4)
    for tok in word:
        expected = expected * factors[tok]
    calls = counting(monkeypatch, "generator_U")
    assert evaluate_word(word, 4) == expected
    assert sorted(calls) == [(1, 4), (2, 4)]


def test_special_elements_frozen():
    s = special_elements(3)
    assert s["epsilon"].items() == [
        (D3(H_STAR, H_STAR), -LaurentPoly.one()),
        (D3(H_STAR, H_STAR, True), LaurentPoly.one()),
    ]
    assert s["alpha"].support() == [Diagram.from_tangle(DecoratedTangle.identity(3)), D3(H_STAR, H_PLAIN, True)]
    assert s["epsilon"].star() == s["epsilon"]
    assert s["zeta"].star() == s["zeta"]
    assert s["alpha"].star() == s["beta"]
    assert s["beta"].star() == s["alpha"]
    with pytest.raises(ValueError):
        special_elements(2)


@pytest.mark.parametrize("m", ["x", 3.0, True, None])
def test_special_elements_reject_a_non_int_strand_count(m):
    with pytest.raises(ValueError, match="^strand count 'm' must be a positive integer"):
        special_elements(m)


def test_nine_monomials_hit_the_whole_basis():
    words = [
        ["1"],
        ["U1"],
        ["U2"],
        ["U1", "U2"],
        ["U2", "U1"],
        ["U1", "beta"],
        ["U2", "alpha"],
        ["U1", "zeta"],
        ["U2", "epsilon"],
    ]
    seen = []
    for w in words:
        x = evaluate_word(w, 3)
        [(d, c)] = x.items()
        assert c == LaurentPoly.one(), f"{w} is not a plain diagram"
        seen.append(d)
    assert len(set(seen)) == 9
    assert set(seen) == set(enumerate_diagrams(3))


def test_zeta_u1_equals_u2_epsilon():
    assert evaluate_word(["zeta", "U1"], 3) == evaluate_word(["U2", "epsilon"], 3)


def test_presentation_holds():
    for m in (3, 4, 5):
        assert verify_presentation(m) == []


def test_presentation_reports_a_wrong_special_element(monkeypatch):
    real = tlh.algebra.special_elements

    def special_elements(m):  # epsilon with the sign of its plain term flipped
        s = real(m)
        u1 = AlgebraElement.from_diagram(generator_U(1, m))
        return dict(s, epsilon=s["epsilon"] + u1.scale(2))

    monkeypatch.setattr(tlh.algebra, "special_elements", special_elements)
    problems = verify_presentation(4)
    assert any(p.startswith("epsilon = U1U2U1 - 2U1: ") for p in problems)
    assert not any(p.startswith(("alpha =", "beta =", "zeta =")) for p in problems)


def test_undecorated_cap_fails_the_quintic_relation():
    # negative control: strip the decoration from the first generator and the
    # order-5 relation degenerates to the order-3 one, so the quintic fails
    fake = DecoratedTangle(
        3, 3, frozenset({(N(1), N(2), 0), (S(1), S(2), 0), (N(3), S(3), 0)})
    )
    u2 = generator_U(2, 3).tangle

    def raw_mul(xs, ys):
        out = []
        for t1, c1 in xs.items():
            for t2, c2 in ys.items():
                out += [(t, c * c1 * c2) for t, c in normal_form(t1.concat(t2))]
        return as_dict(out)

    one = LaurentPoly.one()
    lhs = {fake: one}
    for t in (u2, fake, u2, fake):
        lhs = raw_mul(lhs, {t: one})
    tut = raw_mul(raw_mul({fake: one}, {u2: one}), {fake: one})
    assert tut == {fake: one}  # the ordinary braid-type relation holds instead
    rhs = as_dict([(t, c * 3) for t, c in tut.items()] + [(fake, -one)])
    assert lhs == {fake: one}
    assert rhs == {fake: LaurentPoly.const(2)}
    assert lhs != rhs


def test_products_are_associative_random():
    rng = random.Random(4242)
    diagrams = enumerate_diagrams(4)
    for _ in range(60):
        x, y, z = (AlgebraElement.from_diagram(rng.choice(diagrams)) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def rebuilt(x: AlgebraElement) -> AlgebraElement:
    """x passed through the public constructor, which checks every key and coefficient."""
    assert all(type(c) is LaurentPoly and not c.is_zero() for c in x._terms.values())
    return AlgebraElement(x.m, dict(x._terms))


def test_products_pass_the_public_constructor_checks():
    # multiply and reduce_tangle build their results unchecked; the public constructor must accept them as they are
    rng = random.Random(20261019)
    for m in (2, 3, 4, 5):
        diagrams = enumerate_diagrams(m)
        for _ in range(40):
            x, y = (
                AlgebraElement(m, {rng.choice(diagrams): rng.choice([1, -2, DELTA]) for _ in range(rng.randint(1, 3))})
                for _ in range(2)
            )
            product = x * y
            assert rebuilt(product) == product
            d1, d2 = rng.choice(diagrams), rng.choice(diagrams)
            reduced = reduce_tangle(d1.tangle.concat(d2.tangle))
            assert rebuilt(reduced) == reduced
    u1, one = evaluate_word(["U1"], 3), AlgebraElement.one(3)
    cancelled = (one.scale(DELTA) - u1) * u1  # delta U1 - delta U1: one diagram, coefficient zero
    assert cancelled._terms == {} and rebuilt(cancelled) == cancelled
    s = special_elements(3)
    assert rebuilt(s["epsilon"] * s["beta"]) == s["epsilon"] * s["beta"] == u1  # the bulleted term sums to 0


def bilinear_product(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The product expanded term by term, every coefficient multiplied out: the oracle for multiply."""
    total = AlgebraElement.zero(x.m)
    for d1, c1 in x.items():
        for d2, c2 in y.items():
            total = total + reduce_tangle(d1.tangle.concat(d2.tangle)).scale(c1 * c2)
    return total


def test_multiply_with_non_unit_coefficients_matches_the_bilinear_expansion():
    coefficients = [LaurentPoly.one(), LaurentPoly.v_pow(1), DELTA, LaurentPoly.const(2 + PHI), LaurentPoly.const(-1)]
    rng = random.Random(20261019)
    for m in range(2, 7):
        basis = enumerate_diagrams(m)
        for _ in range(40):
            x, y = (
                AlgebraElement(m, {rng.choice(basis): rng.choice(coefficients) for _ in range(rng.randint(1, 3))})
                for _ in range(2)
            )
            assert multiply(x, y) == bilinear_product(x, y)
    # loops give the reduced terms coefficients other than one, on both sides of the unit
    u1 = AlgebraElement.from_diagram(generator_U(1, 4))
    for c in coefficients:
        expected = u1.scale(c * DELTA)
        assert multiply(u1.scale(c), u1) == multiply(u1, u1.scale(c)) == expected == bilinear_product(u1.scale(c), u1)



def test_multiply_spots_unit_coefficients_without_polynomial_equality(monkeypatch):
    # _times compares stored terms with the unit's: no LaurentPoly.__eq__ (and no _coerce) per product
    coefficients = [LaurentPoly.one(), DELTA, LaurentPoly.const(2 + PHI)]
    rng, cases = random.Random(20261020), []
    for m in (3, 4, 5):
        basis = enumerate_diagrams(m)
        for _ in range(20):
            x, y = (
                AlgebraElement(m, {rng.choice(basis): rng.choice(coefficients) for _ in range(rng.randint(1, 3))})
                for _ in range(2)
            )
            cases.append((x, y, bilinear_product(x, y)))
    word = "U1 alpha U3 zeta U2 epsilon beta".split()
    expected_word = evaluate_word(word, 5)

    def forbidden(self, other):
        raise AssertionError("LaurentPoly.__eq__ called on the product path")

    monkeypatch.setattr(LaurentPoly, "__eq__", forbidden)
    products = [multiply(x, y) for x, y, _ in cases]
    word_value = evaluate_word(word, 5)
    monkeypatch.undo()
    assert products == [expected for *_, expected in cases]
    assert word_value == expected_word

def test_star_is_an_anti_automorphism():
    rng = random.Random(31)
    diagrams = enumerate_diagrams(4)
    for _ in range(60):
        x = AlgebraElement.from_diagram(rng.choice(diagrams))
        y = AlgebraElement.from_diagram(rng.choice(diagrams))
        assert (x * y).star() == y.star() * x.star()
    for i in (1, 2, 3):
        u = AlgebraElement.from_diagram(generator_U(i, 4))
        assert u.star() == u


def test_element_api():
    u1, u2 = evaluate_word(["U1"], 3), evaluate_word(["U2"], 3)
    zero = AlgebraElement.zero(3)
    assert (u1 - u1) == zero and zero.is_zero()
    assert u1 + zero == u1
    assert u1.scale(2) - u1 == u1
    assert 2 * u1 == u1 * 2 == u1 + u1
    assert (u1 + u2).coefficient(generator_U(1, 3)) == LaurentPoly.one()
    assert (u1 + u2).coefficient(Diagram.from_tangle(DecoratedTangle.identity(3))).is_zero()
    assert len((u1 + u2).support()) == 2
    with pytest.raises(ValueError, match="mixed strand counts"):
        u1 + evaluate_word(["U1"], 4)
    with pytest.raises(TypeError):
        AlgebraElement(3, {"x": LaurentPoly.one()})
    with pytest.raises(ValueError, match="strands"):
        AlgebraElement(4, {generator_U(1, 3): LaurentPoly.one()})


def test_one_is_the_identity_diagram_built_in_dyadic_form(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the identity element must not go through a tangle")

    monkeypatch.setattr(Diagram, "from_tangle", forbidden)
    monkeypatch.setattr(DecoratedTangle, "identity", forbidden)
    for m in range(1, 9):
        assert AlgebraElement.one(m) == AlgebraElement.from_diagram(enumerate_diagrams(m)[0])


def test_element_strings():
    assert str(AlgebraElement.zero(3)) == "0"
    assert str(evaluate_word(["U1"], 3)) == "|1-2*><1-2*|"
    x = evaluate_word(["U1"], 3).scale(DELTA)
    assert str(x) == "(v^-1 + v)*|1-2*><1-2*|"


def test_element_json_round_trip():
    s = special_elements(3)
    for x in [AlgebraElement.zero(3), evaluate_word(["U1", "U2"], 3), s["epsilon"], s["zeta"]]:
        assert AlgebraElement.from_json(x.to_json()) == x
    with pytest.raises(ValueError, match="object with 'm'"):
        AlgebraElement.from_json({"terms": []})
    u1 = evaluate_word(["U1"], 3).to_json()
    (term,) = u1["terms"]
    for terms in (5, "U1", [5], [{"coeff": term["coeff"]}], [{"diagram": term["diagram"]}]):
        with pytest.raises(ValueError, match="malformed algebra element terms"):
            AlgebraElement.from_json({"m": 3, "terms": terms})
    for bad in ({"coeff": [[0, 1.5, 0]]}, {"diagram": dict(term["diagram"], n_top=3.0)}):
        with pytest.raises(ValueError):
            AlgebraElement.from_json({"m": 3, "terms": [dict(term, **bad)]})


def test_strand_count_must_be_a_positive_integer():
    # one check in the constructor serves direct callers and from_json alike
    for m in (0, -3, "x", True, 2.0):
        with pytest.raises(ValueError, match="strand count 'm' must be a positive integer"):
            AlgebraElement(m)
        with pytest.raises(ValueError, match="strand count 'm' must be a positive integer"):
            AlgebraElement.from_json({"m": m, "terms": []})


def test_evaluate_word_errors():
    for bad in ("Q", 1, None, ["U1"], b"U1", "U\u0661", "U\u00b2"):  # Arabic-Indic one, superscript two
        with pytest.raises(ValueError, match="unknown generator token"):
            evaluate_word(["U1", bad], 3)
    with pytest.raises(ValueError, match="at least 3 strands"):
        evaluate_word(["alpha"], 2)
    with pytest.raises(ValueError, match="out of range"):
        evaluate_word(["U3"], 3)
    assert evaluate_word([], 3) == AlgebraElement.one(3)
    assert evaluate_word(["1", "U1", "1"], 3) == evaluate_word(["U1"], 3)
    for word in ("11", "", "U1", 5, None, iter(["U1"])):  # a string is not read as a list of one-character tokens
        with pytest.raises(ValueError, match="^evaluate_word needs a list of tokens, got "):
            evaluate_word(word, 3)
    assert evaluate_word(("U1",), 3) == evaluate_word(["U1"], 3)


def test_multiply_rejects_mixed_frames():
    with pytest.raises(ValueError, match="mixed strand counts"):
        multiply(AlgebraElement.one(3), AlgebraElement.one(4))


@pytest.mark.parametrize("x, y", [("x", AlgebraElement.one(3)), (AlgebraElement.one(3), "x"), (None, None)])
def test_multiply_rejects_an_operand_that_is_not_an_element(x, y):
    with pytest.raises(ValueError, match="^multiply needs two AlgebraElements"):
        multiply(x, y)


@pytest.mark.parametrize("reduce", [normal_form, reduce_tangle])
def test_reduction_rejects_an_argument_that_is_not_a_tangle(reduce):
    with pytest.raises(ValueError, match=f"^{reduce.__name__} needs a DecoratedTangle, got 'x'"):
        reduce("x")


@pytest.mark.parametrize("m", [3.0, True, "3", None])
def test_verify_presentation_rejects_a_non_int_strand_count(m):
    # True would otherwise check the relations of no generator and pass
    with pytest.raises(ValueError, match="^strand count 'm' must be a positive integer"):
        verify_presentation(m)


@pytest.mark.parametrize("seed", ["x", 1.0, True, None])
def test_verify_associativity_rejects_a_non_int_seed(seed):
    with pytest.raises(ValueError, match="^seed must be an integer"):
        verify_associativity(3, seed)


def test_positivity_of_structure_coefficients_small():
    assert positivity_check(3) == []


@pytest.mark.parametrize(
    "bad",
    [DELTA + 1, -DELTA, DELTA * GoldenScalar(0, 1), DELTA ** 2, LaurentPoly.v_pow(1), DELTA * Fraction(1, 2)],
    ids=["delta+1", "-delta", "phi*delta", "delta^2", "v", "delta/2"],
)
def test_positivity_check_reports_each_bad_coefficient(monkeypatch, bad):
    # U1 * U1 = [2] U1 has one cap per factor, so [2]^2 is one power too many
    u1 = AlgebraElement.from_diagram(generator_U(1, 3))
    real = tlh.algebra.multiply

    def multiply(x, y):
        return u1.scale(bad) if x == u1 == y else real(x, y)

    monkeypatch.setattr(tlh.algebra, "multiply", multiply)
    d = generator_U(1, 3)
    assert positivity_check(3) == [f"({d}) * ({d}) has coefficient {bad} at {d}"]


def test_associativity_reports_a_corrupted_product(monkeypatch):
    u1, u2 = (AlgebraElement.from_diagram(generator_U(i, 3)) for i in (1, 2))
    real = tlh.algebra.multiply

    def multiply(x, y):  # U1 * U2 picks up a stray identity term
        return real(x, y) + AlgebraElement.one(3) if x == u1 and y == u2 else real(x, y)

    monkeypatch.setattr(tlh.algebra, "multiply", multiply)
    problems = verify_associativity(3, 20260825)
    assert f"associativity fails on ({u1}), ({u1}), ({u2})" in problems
    assert all(p.startswith("associativity fails on (") for p in problems)


def test_associativity_reports_a_reduction_order_that_changes_the_normal_form(monkeypatch):
    real, seen = tlh.algebra.normal_form_random, []

    def normal_form_random(t, rng):  # the first random reduction order picks up a stray term
        stray = {} if seen else {generator_U(1, 2): LaurentPoly.one()}
        seen.append(t)
        return {**real(t, rng), **stray}

    monkeypatch.setattr(tlh.algebra, "normal_form_random", normal_form_random)
    assert verify_associativity(2, 20260825) == [f"reduction order changes the normal form of {seen[0]}"]
    assert len(seen) == 1200


# Property test: elements with rational golden coordinates survive JSON.

coordinate = st.fractions(min_value=-9, max_value=9, max_denominator=5)
golden = st.builds(GoldenScalar, coordinate, coordinate)
laurent = st.dictionaries(st.integers(-4, 4), golden, max_size=3).map(LaurentPoly)


def elements(m):
    terms = st.dictionaries(st.sampled_from(enumerate_diagrams(m)), laurent, max_size=4)
    return terms.map(lambda t: AlgebraElement(m, t))


@settings(max_examples=100, deadline=None, database=None)
@given(st.integers(1, 5).flatmap(elements))
def test_element_json_round_trip_property(x):
    assert AlgebraElement.from_json(json.loads(json.dumps(x.to_json()))) == x
