"""The diagram algebra: reduction to the basis, products, presentation checks.

A raw gluing of two basis diagrams is a square tangle that may contain loops
and edges with stacked decorations.  Three rewriting rules reduce it to a
linear combination of basis diagrams:

  * an undecorated loop is removed, multiplying the term by delta = v + 1/v;
  * a loop with exactly one decoration kills the term;
  * an edge or loop with r >= 2 decorations splits the term in two, with
    r - 1 and r - 2 decorations in place of r.

Iterating the third rule resolves an r-decorated edge into
F(r-1) * (plain edge) + F(r) * (singly decorated edge), and an r-decorated
loop into the scalar F(r-1) * delta; ``normal_form`` applies these closed
forms directly, while ``normal_form_random`` replays single rules in a
random order so tests can confirm the rewriting system is confluent.
"""

from __future__ import annotations

import itertools
import random
from math import comb

from tlh.diagram import Diagram, HalfDiagram, enumerate_diagrams, generator_U
from tlh.ring import LaurentPoly, _arg, fib_pair, to_delta
from tlh.tangle import DecoratedTangle, _refs, random_tangle


_ONE = LaurentPoly.one()  # shared: a LaurentPoly is never changed in place


class ClosureViolation(Exception):
    """A reduced tangle fell outside the span of the basis diagrams."""


def normal_form(t: DecoratedTangle) -> list:
    """Reduce loops and stacked decorations; a list of (tangle, coefficient).

    The returned tangles are loop-free with at most one decoration per edge;
    they are not checked for basis membership.  An already reduced tangle
    comes back as itself.
    """
    _arg(t, (DecoratedTangle,), "normal_form needs a DecoratedTangle")
    partner, dec = t.partner, t.dec
    if not t.loops and max(dec, default=0) < 2:
        return [(t, _ONE)]
    weight = 1  # the loops give weight * delta^len(loops)
    for r in t.loops:
        weight *= fib_pair(r)[0]
    if weight == 0:
        return []
    choices = [(list(dec), weight)]
    for i, j in enumerate(partner):  # each arc once, at its first position
        if i < j and dec[i] >= 2:
            split = tuple(enumerate(fib_pair(dec[i])))  # F(r-1) plain, F(r) singly decorated
            choices = [(d[:i] + [r] + d[i + 1 : j] + [r] + d[j + 1 :], w * f) for d, w in choices for r, f in split]
    power = len(t.loops)
    delta_power = [(power - 2 * k, comb(power, k)) for k in range(power + 1)]
    return [
        (
            DecoratedTangle._trusted(t.n_top, t.n_bottom, partner, d),
            LaurentPoly._from_checked({e: (w * c, 0) for e, c in delta_power}),  # w, c > 0
        )
        for d, w in choices
    ]


def normal_form_random(t: DecoratedTangle, rng) -> dict:
    """Apply single reduction rules in a random order until none applies.

    Returns the combined terms as a tangle -> coefficient dict.  Used to
    check that the closed-form reduction does not depend on rule order.
    """
    refs = _refs(t.n_top, t.n_bottom)  # a rewrite keeps the arcs' ends; the public constructor checks it in full
    rebuild = lambda d, lp: DecoratedTangle(
        t.n_top, t.n_bottom, [(refs[i], refs[j], d[i]) for i, j in enumerate(t.partner) if i < j], lp
    )
    pending = [(t, LaurentPoly.one())]
    done: dict[DecoratedTangle, LaurentPoly] = {}
    while pending:
        tang, coeff = pending.pop()
        partner, dec, loops = tang.partner, tang.dec, tang.loops
        redexes = [("loop", i) for i in range(len(loops))]
        redexes += [("edge", i) for i, j in enumerate(partner) if i < j and dec[i] >= 2]  # arcs in order
        if not redexes:
            done[tang] = done.get(tang, LaurentPoly.zero()) + coeff
            continue
        kind, x = rng.choice(redexes)
        if kind == "loop":
            r, rest = loops[x], loops[:x] + loops[x + 1 :]
            if r == 0:
                pending.append((rebuild(dec, rest), coeff * LaurentPoly.delta()))
            elif r >= 2:
                pending.append((rebuild(dec, rest + (r - 1,)), coeff))
                pending.append((rebuild(dec, rest + (r - 2,)), coeff))
            # r == 1: the term vanishes
        else:
            j, r = partner[x], dec[x]
            for s in (r - 1, r - 2):
                pending.append((rebuild(dec[:x] + (s,) + dec[x + 1 : j] + (s,) + dec[j + 1 :], loops), coeff))
    return done


def _check_strands(m):
    if type(m) is not int or m < 1:  # no bools
        raise ValueError(f"strand count 'm' must be a positive integer, got {m!r}")


class AlgebraElement:
    """A linear combination of basis diagrams on a common strand count."""

    __slots__ = ("m", "_terms")

    def __init__(self, m: int, terms=None):
        _check_strands(m)
        if not isinstance(terms, (dict, type(None))):
            raise TypeError(f"terms must be a dict, got {terms!r}")
        clean: dict[Diagram, LaurentPoly] = {}
        for d, c in (terms or {}).items():
            if not isinstance(d, Diagram):
                raise TypeError(f"term key {d!r} is not a Diagram")
            if d.m != m:
                raise ValueError(f"diagram on {d.m} strands in an element on {m} strands")
            poly = LaurentPoly._coerce(c)
            if poly is None:
                raise TypeError(f"bad coefficient {c!r}")
            if not poly.is_zero():
                clean[d] = poly
        self.m = m
        self._terms = clean

    @classmethod
    def _from_checked(cls, m: int, terms: dict) -> "AlgebraElement":
        """An element from terms already checked: Diagram keys on m strands, LaurentPoly values.

        Only the products and their cell projection build through here; zero
        coefficients are dropped."""
        x = cls.__new__(cls)
        x.m = m
        x._terms = {d: c for d, c in terms.items() if not c.is_zero()}
        return x

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int) -> "AlgebraElement":
        return cls(m)

    @classmethod
    def one(cls, m: int) -> "AlgebraElement":
        return cls.from_diagram(Diagram(HalfDiagram(m), HalfDiagram(m)))

    @classmethod
    def from_diagram(cls, d: Diagram) -> "AlgebraElement":
        return cls(d.m, {d: _ONE})

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def support(self) -> list:
        return sorted(self._terms, key=Diagram.sort_key)

    def items(self):
        return [(d, self._terms[d]) for d in self.support()]

    def coefficient(self, d: Diagram) -> LaurentPoly:
        return self._terms.get(d, LaurentPoly.zero())

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.m == other.m and self._terms == other._terms

    # -- linear structure --------------------------------------------------

    def _require_same_frame(self, other: "AlgebraElement"):
        if self.m != other.m:
            raise ValueError(f"mixed strand counts {self.m} and {other.m}")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same_frame(other)
        terms = dict(self._terms)
        for d, c in other._terms.items():
            terms[d] = terms.get(d, LaurentPoly.zero()) + c
        return AlgebraElement(self.m, terms)

    def __neg__(self):
        return AlgebraElement(self.m, {d: -c for d, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        poly = LaurentPoly._coerce(c)
        if poly is None:
            raise TypeError(f"bad scalar {c!r}")
        return AlgebraElement(self.m, {d: poly * v for d, v in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def __rmul__(self, other):
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    def star(self) -> "AlgebraElement":
        """The anti-automorphism flipping every diagram top-to-bottom."""
        return AlgebraElement(self.m, {d.star(): c for d, c in self._terms.items()})

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for d, c in self.items():
            cs = str(c)
            bits.append(str(d) if cs == "1" else f"({cs})*{d}")
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"<AlgebraElement on {self.m} strands: {self}>"

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "terms": [
                {"diagram": d.to_json(), "coeff": c.to_json()} for d, c in self.items()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AlgebraElement":
        if not isinstance(obj, dict) or "m" not in obj:
            raise ValueError(f"algebra element must be an object with 'm', got {obj!r}")
        terms: dict[Diagram, LaurentPoly] = {}
        try:
            for entry in obj.get("terms", []):
                d = Diagram.from_json(entry["diagram"])
                if d in terms:
                    raise ValueError(f"algebra element terms repeat the diagram {d}")
                terms[d] = LaurentPoly.from_json(entry["coeff"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed algebra element terms: {exc!r}") from exc
        return cls(obj["m"], terms)


def reduce_tangle(t: DecoratedTangle) -> AlgebraElement:
    """Fully reduce a square tangle to an element of the diagram algebra."""
    if not _arg(t, (DecoratedTangle,), "reduce_tangle needs a DecoratedTangle").is_square:
        raise ValueError(f"cannot reduce a non-square tangle ({t.n_top} by {t.n_bottom})")
    _check_strands(t.n_top)
    terms: dict[Diagram, LaurentPoly] = {}
    _add_reduced(terms, t, _ONE)
    return AlgebraElement._from_checked(t.n_top, terms)


def _add_reduced(terms: dict, t: DecoratedTangle, c: LaurentPoly) -> None:
    """Add c times the reduction of the square tangle t to terms, a Diagram -> LaurentPoly dict."""
    for tang, coeff in normal_form(t):
        try:
            d = Diagram.from_tangle(tang)
        except ValueError as exc:
            raise ClosureViolation(f"reduction left a non-basis tangle {tang}: {exc}") from exc
        kc = _times(coeff, c)
        terms[d] = terms[d] + kc if d in terms else kc


def multiply(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """The bilinear product: glue diagrams pairwise and reduce."""
    if type(x) is not AlgebraElement or type(y) is not AlgebraElement:
        raise ValueError(f"multiply needs two AlgebraElements, got {x!r} and {y!r}")
    x._require_same_frame(y)
    terms: dict[Diagram, LaurentPoly] = {}
    for d1, c1 in x._terms.items():
        for d2, c2 in y._terms.items():
            _add_reduced(terms, d1.tangle.concat(d2.tangle), _times(c1, c2))
    return AlgebraElement._from_checked(x.m, terms)


def _times(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """a * b, with no product when a factor is one, told by its stored terms: coefficients are never
    changed in place."""
    return b if a._terms == _ONE._terms else a if b._terms == _ONE._terms else a * b


def special_elements(m: int) -> dict:
    """alpha, beta, epsilon, zeta on m strands, each one bulleted diagram minus one plain diagram.

    With W the decorated cap {1, 2} and C the plain cap {2, 3}: alpha = U1U2 - 1 = |W><C|* - 1,
    beta = U2U1 - 1 = |C><W|* - 1, epsilon = U1U2U1 - 2U1 = |W><W|* - |W><W| and zeta = U2U1U2 - 2U2
    = |C><C|* - |C><C|.  No product is taken; ``verify_presentation`` checks these against the products."""
    _check_strands(m)
    if m < 3:
        raise ValueError(f"the special elements need at least 3 strands, got {m}")
    wall, cap2 = HalfDiagram(m, ((1, 2, 1),)), HalfDiagram(m, ((2, 3, 0),))
    ident = Diagram(HalfDiagram(m), HalfDiagram(m))
    return {
        "alpha": AlgebraElement(m, {Diagram(wall, cap2, True): 1, ident: -1}),
        "beta": AlgebraElement(m, {Diagram(cap2, wall, True): 1, ident: -1}),
        "epsilon": AlgebraElement(m, {Diagram(wall, wall, True): 1, Diagram(wall, wall): -1}),
        "zeta": AlgebraElement(m, {Diagram(cap2, cap2, True): 1, Diagram(cap2, cap2): -1}),
    }


def evaluate_word(tokens, m: int) -> AlgebraElement:
    """The product of generator tokens '1', 'U3', 'alpha', 'beta', 'epsilon', 'zeta': one product per token
    from the identity, with a table local to the call that builds each distinct token's factor once."""
    _arg(tokens, (list, tuple), "evaluate_word needs a list of tokens")  # a string is not read as one-character tokens
    acc, factors = AlgebraElement.one(m), {}
    for tok in tokens:
        if not isinstance(tok, str):
            raise ValueError(f"unknown generator token {tok!r}")
        if tok == "1":
            continue
        if tok not in factors:
            if tok.startswith("U") and tok[1:].isascii() and tok[1:].isdigit():
                factors[tok] = AlgebraElement.from_diagram(generator_U(int(tok[1:]), m))
            elif tok in ("alpha", "beta", "epsilon", "zeta"):
                factors.update(special_elements(m))
            else:
                raise ValueError(f"unknown generator token {tok!r}")
        acc = acc * factors[tok]
    return acc


def verify_presentation(m: int) -> list:
    """Check every defining relation and special-element identity; [] means all hold."""
    _check_strands(m)
    problems = []
    n = m - 1
    delta = LaurentPoly.delta()
    u = {i: AlgebraElement.from_diagram(generator_U(i, m)) for i in range(1, n + 1)}

    def check(name, lhs, rhs):
        if lhs != rhs:
            problems.append(f"{name}: {lhs} != {rhs}")

    for i in range(1, n + 1):
        check(f"U{i}^2 = [2]U{i}", u[i] * u[i], u[i].scale(delta))
    for i in range(1, n + 1):
        for j in range(i + 2, n + 1):
            check(f"U{i}U{j} = U{j}U{i}", u[i] * u[j], u[j] * u[i])
    for i in range(2, n):
        for a, b in ((i, i + 1), (i + 1, i)):
            check(f"U{a}U{b}U{a} = U{a}", u[a] * u[b] * u[a], u[a])
    if n >= 2:
        s, one = special_elements(m), AlgebraElement.one(m)
        for a, b, quadratic, cubic in ((1, 2, "alpha", "epsilon"), (2, 1, "beta", "zeta")):
            ab = u[a] * u[b]
            aba = ab * u[a]
            check(f"U{a}U{b}U{a}U{b}U{a} = 3U{a}U{b}U{a} - U{a}", aba * u[b] * u[a], aba.scale(3) - u[a])
            check(f"{quadratic} = U{a}U{b} - 1", s[quadratic], ab - one)
            check(f"{cubic} = U{a}U{b}U{a} - 2U{a}", s[cubic], aba - u[a].scale(2))
        check("epsilon*beta = U1", s["epsilon"] * s["beta"], u[1])
        check("zeta*alpha = U2", s["zeta"] * s["alpha"], u[2])
        check("U2*epsilon = zeta*U1", u[2] * s["epsilon"], s["zeta"] * u[1])
    return problems


def verify_associativity(m: int, seed: int) -> list:
    """Check that basis products associate and reduction ignores rule order; [] means both hold.

    All basis triples up to 3 strands, else 1200 seeded ones; then 1200 seeded random tangles.
    """
    _arg(seed, (int,), "seed must be an integer")
    problems = []
    elements = [AlgebraElement.from_diagram(d) for d in enumerate_diagrams(m)]
    if m <= 3:
        triples = itertools.product(elements, repeat=3)
    else:
        rng = random.Random(seed)
        triples = ([rng.choice(elements) for _ in range(3)] for _ in range(1200))
    for x, y, z in triples:
        if (x * y) * z != x * (y * z):
            problems.append(f"associativity fails on ({x}), ({y}), ({z})")
    rng = random.Random(seed + 1)
    for _ in range(1200):
        t = random_tangle(rng, m, m, max_dec=3, n_loops=rng.randint(0, 2))
        if dict(normal_form(t)) != normal_form_random(t, rng):
            problems.append(f"reduction order changes the normal form of {t}")
    return problems


def positivity_check(m: int) -> list:
    """Check every structure coefficient is a positive integer times a power of delta."""
    problems = []
    diagrams = enumerate_diagrams(m)
    for d1 in diagrams:
        for d2 in diagrams:
            product = AlgebraElement.from_diagram(d1) * AlgebraElement.from_diagram(d2)
            for d, full in product._terms.items():
                try:
                    ((power, c),) = to_delta(full).items()
                except ValueError:  # not symmetric under v -> 1/v, or more than one power of delta
                    ok = False
                else:
                    ok = c.b == 0 and type(c.a) is int and c.a > 0 and power <= min(d1.k, d2.k)
                if not ok:
                    problems.append(f"({d1}) * ({d2}) has coefficient {full} at {d}")
    return problems
