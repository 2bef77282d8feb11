"""Golden-ring and Laurent-polynomial arithmetic tests."""

from __future__ import annotations

import doctest
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tlh.ring
from tlh.ring import (
    GAMMA1,
    GAMMA2,
    G_ONE,
    G_ZERO,
    PHI,
    GoldenScalar,
    LaurentPoly,
    fib_pair,
    from_delta,
    to_delta,
)


def test_golden_defining_identities():
    assert PHI * PHI == PHI + 1
    assert GAMMA1 + GAMMA2 == G_ONE
    assert GAMMA1 * GAMMA2 == GoldenScalar(-1, 0)
    assert (1 - 2 * PHI) ** 2 == GoldenScalar(5, 0)
    assert (1 - 2 * GAMMA1) * (1 - 2 * GAMMA2) == GoldenScalar(-5, 0)
    assert GAMMA2 == GoldenScalar(1, -1)


def test_fib_pair_frozen_values():
    assert [fib_pair(r) for r in range(8)] == [
        (1, 0), (0, 1), (1, 1), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13),
    ]
    with pytest.raises(ValueError):
        fib_pair(-1)


def test_fib_pair_gives_the_powers_of_phi():
    # the identity normal_form relies on: phi^r = F(r-1) + F(r)*phi
    for r in range(12):
        assert GoldenScalar(*fib_pair(r)) == PHI ** r
    assert GoldenScalar(*fib_pair(5)) == GoldenScalar(3, 5)


@pytest.mark.parametrize("r", [True, 2.5, "2", None])
def test_fib_pair_rejects_a_non_int_count(r):
    with pytest.raises(ValueError, match="^decoration count must be an integer"):
        fib_pair(r)


def test_ring_doctests_pass():
    result = doctest.testmod(tlh.ring)
    assert result.attempted > 0 and result.failed == 0


def test_conjugate_and_norm():
    x = GoldenScalar(3, -4)
    assert x.conjugate() == GoldenScalar(-1, 4)
    assert x.conjugate().conjugate() == x
    # norm is multiplicative
    y = GoldenScalar(2, 7)
    assert (x * y).norm() == x.norm() * y.norm()
    assert x.norm() == 9 - 12 - 16


def test_inverse():
    x = GoldenScalar(1, -2)  # 1 - 2 phi, norm = 1 - 2 - 4 = -5
    assert x.norm() == -5
    inv = x.inverse()
    assert x * inv == G_ONE
    assert inv == GoldenScalar(Fraction(1, 5), Fraction(-2, 5))
    assert PHI.inverse() == GoldenScalar(-1, 1)  # 1/phi = phi - 1
    with pytest.raises(ZeroDivisionError):
        G_ZERO.inverse()


def test_coord_normalization():
    x = GoldenScalar(Fraction(4, 2), Fraction(3, 1))
    assert isinstance(x.a, int) and isinstance(x.b, int)
    assert x == GoldenScalar(2, 3)


def test_golden_equality_reads_rationals_as_the_polynomials_do():
    # a scalar equals the int or Fraction it coerces to, as a LaurentPoly does, and hashes alike;
    # a bool is no number here and a float no exact one
    assert LaurentPoly.one() == 1 and LaurentPoly.one().coefficient(0) == 1
    for x, q in ((G_ONE, 1), (G_ZERO, 0), (GoldenScalar(-7), -7), (GoldenScalar(Fraction(3, 4)), Fraction(3, 4))):
        assert x == q and q == x and not x != q
        assert hash(x) == hash(q) and {q: "q"}[x] == "q"
    assert GoldenScalar(Fraction(6, 3)) == 2 and hash(GoldenScalar(Fraction(6, 3))) == hash(2)
    assert PHI != 0 and PHI != 1 and GAMMA2 != 1 and hash(PHI) == hash(GoldenScalar(0, 1))
    for bad in (True, False, 1.0, "1", None):
        assert G_ONE != bad and G_ZERO != bad and not G_ONE == bad


def test_golden_random_ring_axioms():
    rng = random.Random(20260825)
    sample = lambda: GoldenScalar(rng.randint(-9, 9), rng.randint(-9, 9))
    for _ in range(300):
        x, y, z = sample(), sample(), sample()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x + (-x) == G_ZERO
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        if not x.is_zero():
            assert x * x.inverse() == G_ONE


def test_golden_str():
    assert str(GoldenScalar(0, 0)) == "0"
    assert str(GoldenScalar(2, 0)) == "2"
    assert str(PHI) == "phi"
    assert str(GoldenScalar(0, -1)) == "-phi"
    assert str(GoldenScalar(1, -2)) == "1 - 2*phi"
    assert str(GoldenScalar(-3, 5)) == "-3 + 5*phi"


def test_golden_json_round_trip():
    for x in [G_ZERO, PHI, GoldenScalar(Fraction(1, 5), Fraction(-2, 5)), GoldenScalar(-7, 3)]:
        assert GoldenScalar.from_json(x.to_json()) == x
    assert GoldenScalar(Fraction(1, 5), 0).to_json() == ["1/5", 0]
    with pytest.raises(ValueError):
        GoldenScalar.from_json([1])
    # a coordinate string is read only in the form to_json writes
    for obj in ([1.5, 0], [None, 0], [0, [1]], [True, 0], [" 1", 0], ["1_0", 0], [0, "1.5"], ["1e3", 0], ["x", 0],
                ["+1", 0], ["1/-2", 0], ["\u0661", 0], ["1\n", 0]):
        with pytest.raises(ValueError, match="integers or 'p/q' strings"):
            GoldenScalar.from_json(obj)
    with pytest.raises(ValueError, match="integers or 'p/q' strings"):
        LaurentPoly.from_json([[0, 0.5, 0]])


def test_golden_json_rejects_zero_denominator():
    with pytest.raises(ValueError, match="zero denominator"):
        GoldenScalar.from_json(["1/0", 0])
    with pytest.raises(ValueError, match="zero denominator"):
        LaurentPoly.from_json([[0, 1, "-3/0"]])


def test_laurent_basics():
    d = LaurentPoly.delta()
    assert d == LaurentPoly({1: 1, -1: 1})
    assert str(d) == "v^-1 + v"
    assert d * d == LaurentPoly({-2: 1, 0: 2, 2: 1})
    assert LaurentPoly.one() * d == d
    assert (d - d).is_zero()
    assert LaurentPoly.v_pow(3) * LaurentPoly.v_pow(-5) == LaurentPoly.v_pow(-2)
    assert LaurentPoly.const(PHI).coefficient(0) == PHI
    assert d.min_exp == -1 and d.max_exp == 1


def test_laurent_delta_powers_frozen():
    d = LaurentPoly.delta()
    assert d ** 3 == LaurentPoly({-3: 1, -1: 3, 1: 3, 3: 1})
    assert d ** 0 == LaurentPoly.one()


def test_laurent_divmod_exact():
    d = LaurentPoly.delta()
    f = d ** 4 * LaurentPoly.const(GAMMA2) * LaurentPoly.v_pow(-3)
    q = f.exact_div(d)
    assert q is not None
    assert q * d == f
    assert f.exact_div(d ** 5) is None
    # delta does not divide v + 2/v
    g = LaurentPoly({1: 1, -1: 2})
    assert g.exact_div(d) is None


def divmod_by_reference(f: LaurentPoly, g: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """The earlier divmod_by, which shifts both operands to exponent 0 and back."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero Laurent polynomial")
    if f.is_zero():
        return LaurentPoly.zero(), LaurentPoly.zero()
    sf, sg = f.min_exp, g.min_exp
    G = {e - sg: c for e, c in g.items()}
    deg_g = max(G)
    lead_inv = G[deg_g].inverse()
    rem = {e - sf: c for e, c in f.items()}
    quo: dict[int, GoldenScalar] = {}
    while rem and max(rem) >= deg_g:
        top = max(rem)
        q_exp = top - deg_g
        q_coeff = rem[top] * lead_inv
        quo[q_exp] = q_coeff
        for e, c in G.items():
            ee = e + q_exp
            val = rem.get(ee, G_ZERO) - q_coeff * c
            if val.is_zero():
                rem.pop(ee, None)
            else:
                rem[ee] = val
        if top in rem:
            raise ArithmeticError(f"leading term at degree {top} did not cancel")
    q = LaurentPoly({e + sf - sg: c for e, c in quo.items()})
    r = LaurentPoly({e + sf: c for e, c in rem.items()})
    return q, r


def outcome(divide, f, g):
    try:
        return divide(f, g)
    except (ZeroDivisionError, ArithmeticError) as exc:
        return type(exc), str(exc)


def test_laurent_divmod_random_property():
    rng = random.Random(77)

    def sample():
        return LaurentPoly({
            rng.randint(-5, 5): GoldenScalar(rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 5))
        })

    for _ in range(300):
        f, g = sample(), sample()
        assert outcome(LaurentPoly.divmod_by, f, g) == outcome(divmod_by_reference, f, g)
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                f.divmod_by(g)
            continue
        q, r = f.divmod_by(g)
        assert q * g + r == f
        # remainder's exponent span is strictly below the divisor's
        if not r.is_zero():
            assert (r.max_exp - r.min_exp) < (g.max_exp - g.min_exp)


def test_laurent_json_round_trip():
    f = LaurentPoly({-2: GAMMA2, 0: GoldenScalar(Fraction(1, 5), 0), 3: 7})
    blob = f.to_json()
    assert blob == [[-2, 1, -1], [0, "1/5", 0], [3, 7, 0]]
    assert LaurentPoly.from_json(blob) == f
    with pytest.raises(ValueError):
        LaurentPoly.from_json([[0, 1, 0], [0, 2, 0]])  # exponents must increase
    with pytest.raises(ValueError, match="^laurent polynomial must be a list of triples, got 'x'$"):
        LaurentPoly.from_json("x")
    with pytest.raises(ValueError, match=r"^bad laurent term \[0, 1\]$"):
        LaurentPoly.from_json([[0, 1]])
    assert LaurentPoly.from_json([]) == LaurentPoly.zero()


def test_laurent_random_ring_axioms():
    rng = random.Random(20260825)

    def sample():
        return LaurentPoly({
            rng.randint(-4, 4): GoldenScalar(rng.randint(-3, 3), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 4))
        })

    for _ in range(200):
        f, g, h = sample(), sample(), sample()
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f


# Property tests: Z[phi][v, 1/v] is a commutative ring, and divmod_by divides.

golden = st.builds(GoldenScalar, st.integers(-20, 20), st.integers(-20, 20))
laurent = st.dictionaries(st.integers(-6, 6), golden, max_size=5).map(LaurentPoly)
properties = settings(max_examples=150, deadline=None, database=None)


@properties
@given(golden, golden, golden)
def test_golden_ring_axioms_property(x, y, z):
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + G_ZERO == x and x * G_ONE == x and x + (-x) == G_ZERO


@properties
@given(laurent, laurent, laurent)
def test_laurent_ring_axioms_property(f, g, h):
    one, zero = LaurentPoly.one(), LaurentPoly.zero()
    assert (f + g) + h == f + (g + h) and f + g == g + f
    assert (f * g) * h == f * (g * h) and f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert f + zero == f and f * one == f and f - f == zero


@properties
@given(laurent, laurent.filter(bool))
def test_divmod_by_property(f, g):
    assert outcome(LaurentPoly.divmod_by, f, g) == outcome(divmod_by_reference, f, g)
    q, r = f.divmod_by(g)
    assert q * g + r == f
    if not r.is_zero():  # r lies within g's degree span, counted from f's lowest exponent
        assert f.min_exp <= r.min_exp and r.max_exp - f.min_exp < g.max_exp - g.min_exp
    assert (f * g).exact_div(g) == f


@properties
@given(laurent, laurent, laurent.filter(bool))
def test_operators_build_what_the_public_constructor_builds_property(f, g, h):
    # the operators skip the constructor's coercion; their results must be the ones it would build
    for p in (f + g, f * g, -f, f - g, f + (-f), (f * g) - (g * f), *f.divmod_by(h)):
        assert p == LaurentPoly(dict(p.items()))
        assert all(a or b for a, b in p._terms.values())


@properties
@given(st.one_of(st.tuples(golden, golden), st.tuples(laurent, laurent)), st.integers(-5, 5))
def test_shared_operators_property(pair, k):
    x, y = pair
    assert x - y == x + (-y)
    assert k - x == (-x) + k and (k - x) + x == x._coerce(k)
    power = x._coerce(1)
    for e in range(5):
        assert x ** e == power
        power = power * x
    for bad in (-1, 2.0, Fraction(1, 2), True, False):
        with pytest.raises(ValueError, match=re.escape(f"nonnegative integer power expected, got {bad!r}")):
            x ** bad
    assert bool(x) == (not x.is_zero())


# The v <-> delta conversion: exact both ways on polynomials fixed by v -> 1/v.

coordinate = st.one_of(st.integers(-20, 20), st.fractions(-9, 9, max_denominator=12))
rational_golden = st.builds(GoldenScalar, coordinate, coordinate)
rational_laurent = st.dictionaries(st.integers(-6, 6), rational_golden, max_size=5).map(LaurentPoly)
delta_poly = st.dictionaries(st.integers(0, 6), rational_golden, max_size=5).map(LaurentPoly)


def flip(p: LaurentPoly) -> LaurentPoly:
    """p(1/v)."""
    return LaurentPoly({-e: c for e, c in p.items()})


def test_delta_conversion_frozen():
    v = LaurentPoly.v_pow
    assert to_delta(LaurentPoly.delta()) == v(1)
    assert to_delta(v(2) + v(-2)) == v(2) - 2
    assert to_delta(v(3) + v(-3) + 5 * LaurentPoly.one()) == v(3) - 3 * v(1) + 5
    assert to_delta(LaurentPoly.zero()).is_zero() and from_delta(LaurentPoly.zero()).is_zero()
    assert from_delta(v(2) - 2) == v(2) + v(-2)
    for asymmetric in (v(1), v(-1), v(2) + v(-1), v(1) + 2 * v(-1)):
        with pytest.raises(ValueError, match="not symmetric"):
            to_delta(asymmetric)
    with pytest.raises(ValueError, match="negative power of delta"):
        from_delta(v(-1))


@properties
@given(rational_laurent)
def test_delta_round_trip_property(half):
    p = half + flip(half)  # every polynomial fixed by v -> 1/v has this form
    q = to_delta(p)
    assert q.is_zero() or q.min_exp >= 0
    assert from_delta(q) == p
    # oracle for from_delta: sum c * delta^e power by power
    assert sum((LaurentPoly.delta() ** e * c for e, c in q.items()), LaurentPoly.zero()) == p


@properties
@given(delta_poly)
def test_delta_polynomials_convert_back_property(q):
    p = from_delta(q)
    assert flip(p) == p
    assert to_delta(p) == q


@properties
@given(rational_laurent)
def test_asymmetric_polynomials_raise_property(p):
    if flip(p) == p:
        assert from_delta(to_delta(p)) == p
    else:
        with pytest.raises(ValueError, match="not symmetric"):
            to_delta(p)


# Booleans are not ring elements: True would print as "True" and write JSON
# that from_json rejects.


def test_booleans_are_rejected_by_the_constructors():
    for coords in ((True, 0), (0, False), (Fraction(1, 2), True)):
        with pytest.raises(TypeError, match="expected int or Fraction, got bool"):
            GoldenScalar(*coords)
    for exponent in (True, False):
        for coeff in (1, 0):
            with pytest.raises(TypeError, match=f"bad exponent {exponent}"):
                LaurentPoly({exponent: coeff})
    with pytest.raises(TypeError, match="bad coefficient True"):
        LaurentPoly({0: True})
    assert GoldenScalar._coerce(True) is None and LaurentPoly._coerce(False) is None
    for x in (PHI, LaurentPoly.delta()):
        for op in (lambda: x * True, lambda: True + x, lambda: x - False, lambda: x / True):
            with pytest.raises(TypeError):
                op()



def test_terms_that_are_not_a_dict_raise_type_error():
    # like a bad exponent or coefficient, a bad terms argument is a TypeError, not an AttributeError
    for terms in (5, 2.5, "x", [(0, 1)], ()):
        with pytest.raises(TypeError, match="terms must be a dict"):
            LaurentPoly(terms)
    assert LaurentPoly(None) == LaurentPoly({}) == LaurentPoly.zero()

@properties
@given(rational_laurent)
def test_json_round_trip_property(p):
    for e, c in p.items():
        assert GoldenScalar.from_json(json.loads(json.dumps(c.to_json()))) == c
    assert LaurentPoly.from_json(json.loads(json.dumps(p.to_json()))) == p


# Division: x * conj(y) / N(y), with one division of integer coordinates by
# the norm, against the earlier product with a Fraction inverse.


def inverse_reference(y: GoldenScalar) -> GoldenScalar:
    """The earlier GoldenScalar.inverse: conj(y) / N(y), coordinate by coordinate in Fractions."""
    n = y.norm()
    if n == 0:
        raise ZeroDivisionError("inverse of zero golden scalar")
    conj = y.conjugate()
    return GoldenScalar(Fraction(conj.a, 1) / n, Fraction(conj.b, 1) / n)


def is_normal(*coords) -> bool:
    """Each coordinate is an int exactly when it is integral."""
    return all((type(c) is int) == (Fraction(c).denominator == 1) for c in coords)


any_golden = st.one_of(golden, rational_golden)


@properties
@given(any_golden, any_golden.filter(bool))
def test_division_matches_multiplying_by_the_inverse_property(x, y):
    q = x / y
    assert q == x * inverse_reference(y) and is_normal(q.a, q.b)
    assert q * y == x
    exact = (x * y) / y  # an exact quotient keeps x's coordinates, ints included
    assert exact == x and is_normal(exact.a, exact.b)
    assert y.inverse() == inverse_reference(y) and is_normal(y.inverse().a, y.inverse().b)
    for k in (1, -3, Fraction(2, 7)):
        assert x / k == x * inverse_reference(GoldenScalar(k, 0))


def test_division_by_zero_keeps_its_message():
    for x in (G_ONE, G_ZERO, GoldenScalar(Fraction(1, 3), 2)):
        for zero in (G_ZERO, 0, Fraction(0)):
            with pytest.raises(ZeroDivisionError, match="^inverse of zero golden scalar$"):
                x / zero
    with pytest.raises(ZeroDivisionError, match="^inverse of zero golden scalar$"):
        G_ZERO.inverse()


# The ring kernel: a LaurentPoly stores coordinate pairs and its operators
# compute on them.  The earlier operators, which sum and multiply GoldenScalar
# values through the public constructor, are its oracles.


def add_reference(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The earlier LaurentPoly.__add__: GoldenScalar sums per exponent."""
    terms = dict(f.items())
    for e, c in g.items():
        terms[e] = terms.get(e, G_ZERO) + c
    return LaurentPoly(terms)


def mul_reference(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """The earlier LaurentPoly.__mul__: GoldenScalar products summed per exponent."""
    terms: dict[int, GoldenScalar] = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            terms[e1 + e2] = terms.get(e1 + e2, G_ZERO) + c1 * c2
    return LaurentPoly(terms)


def neg_reference(f: LaurentPoly) -> LaurentPoly:
    """The earlier LaurentPoly.__neg__."""
    return LaurentPoly({e: -c for e, c in f.items()})


def stored_normally(p: LaurentPoly) -> bool:
    """Every stored coefficient is a nonzero coordinate pair, each coordinate an int exactly when integral."""
    return all(type(x) is tuple and len(x) == 2 and any(x) and is_normal(*x) for x in p._terms.values())


def same(got: LaurentPoly, want: LaurentPoly) -> bool:
    """Equal, with the same JSON, and stored normally."""
    return got == want and got.to_json() == want.to_json() and stored_normally(got)


any_laurent = st.one_of(laurent, rational_laurent)


@properties
@given(any_laurent, any_laurent, st.one_of(any_golden, coordinate), any_golden.filter(bool))
def test_kernel_matches_the_golden_scalar_reference_property(f, g, k, w):
    const = LaurentPoly.const(k)
    assert same(f + g, add_reference(f, g)) and same(k + f, add_reference(const, f))
    assert same(f - g, add_reference(f, neg_reference(g))) and same(k - f, add_reference(const, neg_reference(f)))
    assert same(-f, neg_reference(f))
    assert same(f * g, mul_reference(f, g)) and same(f * k, mul_reference(f, const)) and same(k * f, f * k)
    assert same(f * f, mul_reference(f, f)) and same((f + g) * (f - g), mul_reference(f + g, f - g))
    for zero in (f + (-f), f - f, f * g + (-(g * f)), f * g - g * f):  # every coefficient cancels
        assert same(zero, LaurentPoly.zero())
    assert same(f._over(w), LaurentPoly({e: c / w for e, c in f.items()}))


def test_kernel_drops_what_cancels_and_returns_integral_fractions_as_ints():
    v = LaurentPoly.v_pow
    f = LaurentPoly({0: 1, 1: PHI, 3: GoldenScalar(Fraction(1, 3), -2)})
    assert (f + (-f))._terms == {} and (f - f)._terms == {} and (f * 0)._terms == {}
    assert ((1 + v(1)) * (1 - v(1))).to_json() == [[0, 1, 0], [2, -1, 0]]  # the v terms cancel
    half = GoldenScalar(Fraction(1, 2), Fraction(-1, 2))
    product = LaurentPoly({0: half, 1: half}) * LaurentPoly({-1: 2, 0: 4})
    assert product.to_json() == [[-1, 1, -1], [0, 3, -3], [1, 2, -2]]
    third = LaurentPoly.const(GoldenScalar(Fraction(1, 3), Fraction(2, 3)))
    for p in (product, third * 3, 3 * third, third + third + third, third * LaurentPoly.const(3)):
        assert all(type(a) is int and type(b) is int for a, b in p._terms.values())
    assert (third * 3).to_json() == [[0, 1, 2]]
    q, r = LaurentPoly({1: GoldenScalar(5, 0), 0: 5}).divmod_by(LaurentPoly.const(GoldenScalar(1, -2)))
    assert q.to_json() == [[0, 1, -2], [1, 1, -2]] and r.is_zero()  # (1 - 2phi)^2 = 5


@properties
@given(any_laurent, any_laurent, any_laurent.filter(bool), any_golden.filter(bool))
def test_kernel_stores_pairs_and_builds_no_scalar_property(f, g, h, w):
    symmetric = f + flip(f)
    post_init, built = GoldenScalar.__post_init__, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GoldenScalar, "__post_init__", lambda x: built.append(x) or post_init(x))
        results = [f + g, f - g, f * g, -f, f._over(w), *f.divmod_by(h), to_delta(symmetric)]
    assert built == [] and all(stored_normally(p) for p in results)


def test_divmod_by_takes_a_scalar_divisor_and_rejects_anything_else():
    # the divisor is coerced as the operand of * and - is: a scalar is a constant polynomial
    f = LaurentPoly({1: 4, -1: GoldenScalar(2, 6)})
    assert f.divmod_by(2) == (LaurentPoly({1: 2, -1: GoldenScalar(1, 3)}), 0)
    assert LaurentPoly.one().divmod_by(2) == (LaurentPoly.const(Fraction(1, 2)), 0)
    assert f.exact_div(GAMMA2) * GAMMA2 == f and f.exact_div(Fraction(1, 3)) == 3 * f
    for bad in ("x", None, 1.5, True, [1]):
        for divide in (f.divmod_by, f.exact_div):
            with pytest.raises(ValueError, match=f"^cannot divide a Laurent polynomial by {re.escape(repr(bad))}$"):
                divide(bad)
    with pytest.raises(ZeroDivisionError):
        f.divmod_by(0)


def test_divmod_by_raises_when_a_leading_term_does_not_cancel(monkeypatch):
    # one quotient term off by one leaves the top term in place, and the check must see it
    times_over, calls = tlh.ring._times_over, []

    def off_once(*args):
        a, b = times_over(*args)
        calls.append(args)
        return (a + 1, b) if len(calls) == 1 else (a, b)

    monkeypatch.setattr(tlh.ring, "_times_over", off_once)
    with pytest.raises(ArithmeticError, match="^leading term at degree 2 did not cancel$"):
        LaurentPoly({2: 3, 0: 1}).divmod_by(LaurentPoly.delta())
