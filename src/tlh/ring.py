"""Exact scalar arithmetic for the type-H diagram calculus.

Decorations on diagram edges multiply like powers of a symbol gamma subject
to gamma^2 = gamma + 1, so the weight of r stacked decorations collapses to
F(r-1) + F(r)*gamma with the Fibonacci convention F(0) = 0, F(1) = 1.  We
realise gamma as the golden ratio phi and compute in Z[phi].  Division
x / y multiplies x by the conjugate of y and divides each integer coordinate
by the norm N(y); a coordinate becomes a Fraction only when N(y) does not
divide it, so an exact quotient, such as every quotient term of a
fraction-free determinant, stays in Z[phi].  The cellular basis change
divides by gamma2 - gamma1 = 1 - 2*phi, of norm -5, once per coordinate.

Coefficients of the diagram algebra live one level up, in Laurent
polynomials in v over the golden ring; the loop parameter is the quantum
integer delta = [2] = v + v^(-1).  A Laurent polynomial fixed by v -> 1/v is
a polynomial in delta, half as long; ``to_delta`` and ``from_delta`` convert
exactly between the two, a delta-polynomial being a LaurentPoly whose
nonnegative exponents count powers of delta.  One private base gives both
rings their derived operators.  A LaurentPoly stores each coefficient
a + b*phi as its coordinate pair (a, b), and its operators -- sum,
difference, negation, product, long division and the delta conversion --
compute on those pairs; GoldenScalars are built only where a coefficient
enters or leaves.  Everything here is immutable and exact: no floats.
"""

from __future__ import annotations

import dataclasses
import re
from fractions import Fraction
from math import comb


def _arg(x, kinds: tuple, what: str):
    """x itself if its exact type is one of kinds, so an int is never a bool; else ValueError "{what}, got {x!r}"."""
    if type(x) not in kinds:
        raise ValueError(f"{what}, got {x!r}")
    return x


def _norm_coord(c):
    """Collapse denominator-1 fractions back to int; anything but an int or a Fraction raises."""
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if type(c) is not int:  # no bools
        raise TypeError(f"expected int or Fraction, got {type(c).__name__}")
    return c


def _pair(a, b) -> tuple:
    """The stored coordinates of a + b*phi, each an int exactly when integral."""
    return (a, b) if type(a) is int and type(b) is int else (_norm_coord(a), _norm_coord(b))


def _quotient(c, n):
    """The coordinate c / n, an int exactly when integral."""
    if type(c) is int and type(n) is int:
        q, r = divmod(c, n)
        return Fraction(c, n) if r else q
    return _norm_coord(Fraction(c) / n)


def _times_over(x, y, c, d, n) -> tuple:
    """The coordinates of (x + y*phi)(c + d*phi) / n; with c + d*phi = conj(w) and n = N(w), of (x + y*phi) / w."""
    yd = y * d
    return _quotient(x * c + yd, n), _quotient(x * d + y * c + yd, n)


class _Ring:
    """Truth, reflected subtraction and powers from a subclass's _coerce, is_zero, - and *."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __pow__(self, e: int):
        if type(e) is not int or e < 0:  # no bools
            raise ValueError(f"nonnegative integer power expected, got {e!r}")
        out = self._coerce(1)
        for _ in range(e):
            out = out * self
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
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return GoldenScalar(x, 0)
        return None

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))  # a rational hashes as its int or Fraction

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GoldenScalar(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return GoldenScalar(-self.a, -self.b)

    def __sub__(self, other):
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
        return G_ONE / self

    def __truediv__(self, other):
        """x * conj(y) / N(y), dividing each coordinate by the norm once."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero golden scalar")
        return GoldenScalar(*_times_over(self.a, self.b, other.a + other.b, -other.b, n))

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
        if any(type(c) is not int and not (type(c) is str and re.fullmatch("-?[0-9]+(/[0-9]+)?", c)) for c in obj):
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
    if _arg(r, (int,), "decoration count must be an integer") < 0:
        raise ValueError(f"decoration count must be nonnegative, got {r}")
    a, b = 1, 0
    for _ in range(r):
        a, b = b, a + b
    return a, b


class LaurentPoly(_Ring):
    """Laurent polynomial in v with coefficients in Z[phi] (or Q(phi)).

    Stored as a finitely supported map from each exponent to the coordinate
    pair (a, b) of its nonzero coefficient a + b*phi, each coordinate an int
    exactly when integral.  Instances are treated as immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        if not isinstance(terms, (dict, type(None))):
            raise TypeError(f"terms must be a dict, got {terms!r}")
        clean: dict[int, tuple] = {}
        for e, c in (terms or {}).items():
            if type(e) is not int:  # no bools
                raise TypeError(f"bad exponent {e!r}")
            g = GoldenScalar._coerce(c)
            if g is None:
                raise TypeError(f"bad coefficient {c!r}")
            if not g.is_zero():
                clean[e] = (g.a, g.b)
        self._terms = clean

    @classmethod
    def _from_checked(cls, terms: dict) -> "LaurentPoly":
        """A polynomial stored as given: int exponents, nonzero normalized coordinate pairs.

        The ring kernel builds its results through here, on pairs it made.
        """
        poly = object.__new__(cls)
        poly._terms = terms
        return poly

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
        return [(e, GoldenScalar(*p)) for e, p in sorted(self._terms.items())]

    def coefficient(self, e: int) -> GoldenScalar:
        p = self._terms.get(e)
        return G_ZERO if p is None else GoldenScalar(*p)

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
        if g is None:
            return None
        return LaurentPoly._from_checked({0: (g.a, g.b)} if g.a or g.b else {})

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def _plus(self, other, sign: int):
        """self + sign * other, for sign 1 or -1."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for e, (c, d) in other._terms.items():
            a, b = terms.get(e, (0, 0))
            a, b = a + sign * c, b + sign * d
            if a or b:
                terms[e] = _pair(a, b)
            else:
                del terms[e]
        return LaurentPoly._from_checked(terms)

    def __neg__(self):
        return LaurentPoly._from_checked({e: (-a, -b) for e, (a, b) in self._terms.items()})

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        xs, ys = self._terms, other._terms
        acc: dict[int, tuple] = {}
        for e1, (a, b) in xs.items():
            for e2, (c, d) in ys.items():
                bd = b * d
                e = e1 + e2
                p = acc.get(e)
                if p is None:
                    acc[e] = (a * c + bd, a * d + b * c + bd)
                else:
                    acc[e] = (p[0] + a * c + bd, p[1] + a * d + b * c + bd)
        return LaurentPoly._from_checked({e: _pair(a, b) for e, (a, b) in acc.items() if a or b})

    __rmul__ = __mul__

    def _over(self, w: GoldenScalar) -> "LaurentPoly":
        """Each coefficient divided by the nonzero golden scalar w, as x * conj(w) / N(w) on the pairs."""
        c, d, n = w.a + w.b, -w.b, w.norm()
        return LaurentPoly._from_checked({e: _times_over(a, b, c, d, n) for e, (a, b) in self._terms.items()})

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
        [self.min_exp, self.min_exp + span(other)).  Each quotient term is
        one golden division by the leading coefficient, so an exact quotient
        with coefficients in Z[phi] never leaves it.  A scalar divisor is
        the constant polynomial.
        """
        other, given = self._coerce(other), other
        if other is None:
            raise ValueError(f"cannot divide a Laurent polynomial by {given!r}")
        if other.is_zero():
            raise ZeroDivisionError("division by zero Laurent polynomial")
        lead_exp = other.max_exp
        la, lb = other._terms[lead_exp]
        c, d, n = la + lb, -lb, la * la + la * lb - lb * lb  # dividing by the lead is x * conj(lead) / N(lead)
        divisor = [(e, ya, yb) for e, (ya, yb) in other._terms.items()]
        rem = dict(self._terms)
        floor = min(rem, default=0) + lead_exp - other.min_exp
        quo: dict[int, tuple] = {}
        while rem and max(rem) >= floor:
            top = max(rem)
            shift = top - lead_exp
            qa, qb = quo[shift] = _times_over(*rem[top], c, d, n)
            for e, ya, yb in divisor:
                e += shift
                bd = qb * yb
                a, b = qa * ya + bd, qa * yb + qb * ya + bd
                r = rem.get(e)
                a, b = (-a, -b) if r is None else (r[0] - a, r[1] - b)
                if a or b:
                    rem[e] = (a, b)
                else:
                    rem.pop(e, None)
            if top in rem:
                raise ArithmeticError(f"leading term at degree {top} did not cancel")
        return LaurentPoly._from_checked(quo), LaurentPoly._from_checked({e: _pair(a, b) for e, (a, b) in rem.items()})

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
        terms, last = {}, None
        for t in _arg(obj, (list,), "laurent polynomial must be a list of triples"):
            if not isinstance(t, list) or len(t) != 3:
                raise ValueError(f"bad laurent term {t!r}")
            e = _arg(t[0], (int,), "laurent exponent must be an integer")
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
    out: dict[int, tuple] = {}
    while rem:
        top = max(rem)
        if top < 0:
            raise ValueError(f"{p} is not symmetric under v -> 1/v")
        c, d = out[top] = rem[top]
        for i in range(top + 1):  # delta^top = sum over i of C(top, i) v^(top - 2i)
            e, k = top - 2 * i, comb(top, i)
            a, b = rem.get(e, (0, 0))
            a, b = a - c * k, b - d * k
            if a or b:
                rem[e] = _pair(a, b)
            else:
                rem.pop(e, None)
    return LaurentPoly._from_checked(out)


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
