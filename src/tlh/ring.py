"""Exact scalar arithmetic for the type-H diagram calculus.

Decorations on diagram edges multiply like powers of a symbol gamma subject
to gamma^2 = gamma + 1, so the weight of r stacked decorations collapses to
F(r-1) + F(r)*gamma with the Fibonacci convention F(0) = 0, F(1) = 1.  We
realise gamma as the golden ratio phi and compute in Z[phi], passing to
exact rational coordinates in Q(phi) only where an inverse is genuinely
required (the cellular basis change divides by gamma2 - gamma1 = 1 - 2*phi).

Coefficients of the diagram algebra live one level up, in Laurent
polynomials in v over the golden ring; the loop parameter is the quantum
integer delta = [2] = v + v^(-1).  A Laurent polynomial fixed by v -> 1/v is
a polynomial in delta, half as long; ``to_delta`` and ``from_delta`` convert
exactly between the two, a delta-polynomial being a LaurentPoly whose
nonnegative exponents count powers of delta.  One private base gives both
rings their derived operators.  Everything here is immutable and exact: no
floats.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import comb


def _norm_coord(c):
    """Collapse denominator-1 fractions back to int."""
    if isinstance(c, int):  # the common case, and cheaper than the Fraction (ABC) check
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"expected int or Fraction, got {type(c).__name__}")


class _Ring:
    """Truth, subtraction and powers from a subclass's _coerce, is_zero, +, unary - and *."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"nonnegative integer power expected, got {e!r}")
        out, base = self._coerce(1), self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out


@dataclasses.dataclass(frozen=True)
class GoldenScalar(_Ring):
    """An element a + b*phi of Z[phi] (or Q(phi)), with phi^2 = phi + 1.

    >>> phi = GoldenScalar(0, 1)
    >>> phi * phi == phi + 1
    True
    >>> (GoldenScalar(1, 0) - 2 * phi) ** 2 == GoldenScalar(5, 0)
    True
    """

    a: object = 0
    b: object = 0

    def __post_init__(self):
        object.__setattr__(self, "a", _norm_coord(self.a))
        object.__setattr__(self, "b", _norm_coord(self.b))

    @staticmethod
    def _coerce(x) -> "GoldenScalar | None":
        if isinstance(x, GoldenScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return GoldenScalar(x, 0)
        return None

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GoldenScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return GoldenScalar(-self.a, -self.b)

    def __sub__(self, other):  # direct: Bareiss subtracts scalars too often to build each negation
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GoldenScalar(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self.a, self.b, other.a, other.b
        # (a + b phi)(c + d phi) = ac + bd + (ad + bc + bd) phi
        return GoldenScalar(a * c + b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def conjugate(self) -> "GoldenScalar":
        """The Galois conjugate phi -> 1 - phi."""
        return GoldenScalar(self.a + self.b, -self.b)

    def norm(self):
        """Field norm a^2 + ab - b^2; rational, zero only at zero."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def inverse(self) -> "GoldenScalar":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero golden scalar")
        conj = self.conjugate()
        return GoldenScalar(Fraction(conj.a, 1) / n, Fraction(conj.b, 1) / n)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        mag = -self.b if self.b < 0 else self.b
        term = "phi" if mag == 1 else f"{mag}*phi"
        if self.a == 0:
            return term if self.b > 0 else f"-{term}"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {term}"

    def to_json(self):
        """Coordinate pair [a, b]; non-integer rationals render as 'p/q'."""
        enc = lambda c: c if isinstance(c, int) else f"{c.numerator}/{c.denominator}"
        return [enc(self.a), enc(self.b)]

    @classmethod
    def from_json(cls, obj) -> "GoldenScalar":
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ValueError(f"golden scalar must be a pair, got {obj!r}")
        if any(isinstance(c, bool) or not isinstance(c, (int, str)) for c in obj):
            raise ValueError(f"golden coordinates must be integers or 'p/q' strings, got {obj!r}")
        try:
            return cls(*(Fraction(c) if isinstance(c, str) else c for c in obj))
        except ZeroDivisionError:
            raise ValueError(f"golden scalar has a zero denominator: {obj!r}") from None


G_ZERO = GoldenScalar(0, 0)
G_ONE = GoldenScalar(1, 0)
PHI = GoldenScalar(0, 1)
#: The two roots of x^2 = x + 1: the decoration weights gamma1, gamma2.
GAMMA1 = PHI
GAMMA2 = GoldenScalar(1, -1)


def fib_pair(r: int) -> tuple[int, int]:
    """(F(r-1), F(r)) with F(0) = 0, F(1) = 1; F(-1) = 1.

    >>> [fib_pair(r) for r in range(4)]
    [(1, 0), (0, 1), (1, 1), (1, 2)]
    """
    if r < 0:
        raise ValueError(f"decoration count must be nonnegative, got {r}")
    a, b = 1, 0
    for _ in range(r):
        a, b = b, a + b
    return a, b


class LaurentPoly(_Ring):
    """Laurent polynomial in v with GoldenScalar coefficients.

    Stored as a finitely supported exponent -> coefficient map with no zero
    values.  Instances are treated as immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[int, GoldenScalar] = {}
        for e, c in (terms or {}).items():
            g = GoldenScalar._coerce(c)
            if g is None:
                raise TypeError(f"bad coefficient {c!r}")
            if not g.is_zero():
                if not isinstance(e, int):
                    raise TypeError(f"bad exponent {e!r}")
                clean[e] = g
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def v_pow(cls, e: int) -> "LaurentPoly":
        return cls({e: 1})

    @classmethod
    def delta(cls) -> "LaurentPoly":
        """The loop weight [2] = v + v^(-1)."""
        return cls({1: 1, -1: 1})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return sorted(self._terms.items())

    def coefficient(self, e: int) -> GoldenScalar:
        return self._terms.get(e, G_ZERO)

    @property
    def min_exp(self):
        return min(self._terms) if self._terms else None

    @property
    def max_exp(self):
        return max(self._terms) if self._terms else None

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "LaurentPoly | None":
        if isinstance(x, LaurentPoly):
            return x
        g = GoldenScalar._coerce(x)
        if g is not None:
            return LaurentPoly({0: g})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, G_ZERO) + c
        return LaurentPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self._terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[int, GoldenScalar] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, G_ZERO) + c1 * c2
        return LaurentPoly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    # -- division ----------------------------------------------------------

    def divmod_by(self, other: "LaurentPoly") -> tuple["LaurentPoly", "LaurentPoly"]:
        """Quotient and remainder over the coefficient field Q(phi).

        Long division from the top exponent down, in the operands' own
        exponents, so self == q * other + r with r supported in
        [self.min_exp, self.min_exp + span(other)).
        """
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        lead_exp = other.max_exp
        lead_inv = other._terms[lead_exp].inverse()
        rem = dict(self._terms)
        floor = min(rem, default=0) + lead_exp - other.min_exp
        quo: dict[int, GoldenScalar] = {}
        while rem and max(rem) >= floor:
            top = max(rem)
            q_exp = top - lead_exp
            q_coeff = rem[top] * lead_inv
            quo[q_exp] = q_coeff
            for e, c in other._terms.items():
                ee = e + q_exp
                val = rem.get(ee, G_ZERO) - q_coeff * c
                if val.is_zero():
                    rem.pop(ee, None)
                else:
                    rem[ee] = val
            if top in rem:
                raise ArithmeticError(f"leading term at degree {top} did not cancel")
        return LaurentPoly(quo), LaurentPoly(rem)

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly | None":
        """self / other when the division is exact, else None."""
        q, r = self.divmod_by(other)
        return q if r.is_zero() else None

    # -- misc --------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for e, c in self.items():
            cs = str(c)
            if ("+" in cs[1:]) or ("-" in cs[1:]):
                cs = f"({cs})"
            if e == 0:
                bits.append(cs)
            else:
                ve = "v" if e == 1 else f"v^{e}"
                bits.append(ve if cs == "1" else f"{cs}*{ve}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"

    def to_json(self):
        """Triples [exponent, a, b] with strictly increasing exponents."""
        return [[e, *c.to_json()] for e, c in self.items()]

    @classmethod
    def from_json(cls, obj) -> "LaurentPoly":
        if not isinstance(obj, list):
            raise ValueError(f"laurent polynomial must be a list of triples, got {obj!r}")
        terms = {}
        last = None
        for t in obj:
            if not isinstance(t, list) or len(t) != 3:
                raise ValueError(f"bad laurent term {t!r}")
            e = t[0]
            if not isinstance(e, int) or isinstance(e, bool):
                raise ValueError(f"laurent exponent must be an integer, got {e!r}")
            if last is not None and e <= last:
                raise ValueError("laurent exponents must be strictly increasing")
            last = e
            terms[e] = GoldenScalar.from_json(t[1:])
        return cls(terms)


def to_delta(p: LaurentPoly) -> LaurentPoly:
    """p(v) as a polynomial in delta = v + v^(-1); exponent e counts delta^e.

    Removes c * delta^top from the top term until nothing is left, which
    succeeds exactly when p(v) == p(1/v); any other input raises ValueError.

    >>> to_delta(LaurentPoly({2: 1, 0: 3, -2: 1})) == LaurentPoly({2: 1, 0: 1})
    True
    """
    rem = dict(p._terms)
    out: dict[int, GoldenScalar] = {}
    while rem:
        top = max(rem)
        if top < 0:
            raise ValueError(f"{p} is not symmetric under v -> 1/v")
        c = out[top] = rem[top]
        for i in range(top + 1):  # delta^top = sum over i of C(top, i) v^(top - 2i)
            e = top - 2 * i
            val = rem.get(e, G_ZERO) - c * comb(top, i)
            if val.is_zero():
                rem.pop(e, None)
            else:
                rem[e] = val
    return LaurentPoly(out)


def from_delta(q: LaurentPoly) -> LaurentPoly:
    """A polynomial in delta, exponent e counting delta^e, written back in v by Horner's rule."""
    if q.is_zero():
        return q
    if q.min_exp < 0:
        raise ValueError(f"{q} has a negative power of delta")
    out, delta = LaurentPoly.zero(), LaurentPoly.delta()
    for e in range(q.max_exp, -1, -1):
        out = out * delta + q.coefficient(e)
    return out
