"""An oracle from type A: the Gram determinants of the Temperley-Lieb algebra TL_n(delta).

U_2, ..., U_n are plain and act on strands 2..n+1, so the plain diagrams with
strand 1 straight and undecorated span TL_n(delta) inside the rank-n algebra.
Its standard module with p = n - 2k through-lines has the k-cap faces whose
node 1 is free as basis, and its form has the closed-form determinant

    det G_{n,p} = prod_{j=1..k} ([p+1+j] / [j]) ^ dim W_{n,p+2j}

with [j] the quantum integer and dim W_{n,q} = C(n, k') - C(n, k' - 1) for
k' = (n - q) / 2 (Westbury, Math. Z. 1995; Ridout-Saint-Aubin 2014).  The
forms are read off ``multiply`` and their determinants taken by
``RingMatrix.det``, with no cell code: this checks the loop rule, the
read-back of each product and Bareiss against a formula from outside the
paper.
"""

from math import comb

import pytest

import tlh.algebra
from tlh.algebra import AlgebraElement
from tlh.cellular import RingMatrix
from tlh.diagram import Diagram, enumerate_half
from tlh.ring import LaurentPoly

#: (n, k) for every standard module of TL_n with k >= 1 caps, n = 2..7.
MODULES = [(n, k) for n in range(2, 8) for k in range(1, n // 2 + 1)]


def _quantum(j: int) -> LaurentPoly:
    """[j] = v^(j-1) + v^(j-3) + ... + v^(1-j)."""
    return LaurentPoly({e: 1 for e in range(1 - j, j, 2)})


def _dim(n: int, k: int) -> int:
    """dim W_{n, n-2k}."""
    return comb(n, k) - (comb(n, k - 1) if k else 0)


def _standard_basis(n: int, k: int) -> list:
    return [h for h in enumerate_half(n + 1, k) if 1 in h.free_points]


def _form(n: int, k: int) -> RingMatrix:
    """Entry (S, T) is the coefficient of |A><A| in |A><S| * |T><A|, with A the first basis face."""
    basis = _standard_basis(n, k)
    a = basis[0]
    corner = Diagram(a, a)

    def entry(S, T):
        x, y = AlgebraElement.from_diagram(Diagram(a, S)), AlgebraElement.from_diagram(Diagram(T, a))
        return tlh.algebra.multiply(x, y).coefficient(corner)

    return RingMatrix([[entry(S, T) for T in basis] for S in basis])


def _closed_form(n: int, k: int) -> tuple:
    """The expected determinant as (numerator, denominator)."""
    p = n - 2 * k
    num = den = LaurentPoly.one()
    for j in range(1, k + 1):
        e = _dim(n, k - j)
        num = num * _quantum(p + 1 + j) ** e
        den = den * _quantum(j) ** e
    return num, den


def _holds(n: int, k: int) -> bool:
    num, den = _closed_form(n, k)
    return _form(n, k).det() * den == num


@pytest.mark.parametrize("n, k", MODULES)
def test_standard_module_has_the_type_a_dimension_and_gram_determinant(n, k):
    assert len(_standard_basis(n, k)) == _dim(n, k)
    assert _holds(n, k)


def test_closed_form_frozen_values():
    # TL_2: the one-cap form is the loop weight delta = [2]; TL_4 at p = 0 gives ([2]/[1])^3 * ([3]/[2])^1
    assert _form(2, 1) == RingMatrix([[LaurentPoly.delta()]])
    assert _closed_form(4, 2) == (_quantum(2) ** 3 * _quantum(3), _quantum(2))


def test_a_loop_weighed_delta_squared_breaks_the_closed_form(monkeypatch):
    normal_form = tlh.algebra.normal_form

    def heavy(t):
        extra = LaurentPoly.delta() ** sum(1 for r in t.loops if r == 0)
        return [(tangle, c * extra) for tangle, c in normal_form(t)]

    monkeypatch.setattr(tlh.algebra, "normal_form", heavy)
    assert [module for module in MODULES if _holds(*module)] == []


def test_a_product_that_drops_one_term_breaks_the_closed_form(monkeypatch):
    multiply = tlh.algebra.multiply

    def lossy(x, y):
        product = multiply(x, y)
        return AlgebraElement(product.m, dict(product.items()[1:]))

    monkeypatch.setattr(tlh.algebra, "multiply", lossy)
    assert [module for module in MODULES if _holds(*module)] == []
