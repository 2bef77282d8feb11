"""Basis diagrams of the type-H diagram algebra.

A diagram on m strands is a square, loop-free decorated tangle whose edges
carry at most one decoration each and which satisfies the two face
conditions: an all-propagating diagram carries no decorations, and a face
that contains caps must contain either a decorated cap on nodes {1, 2} or an
undecorated cap on some {i, i+1} with i > 1.

Such a diagram is stored in dyadic form, ``Diagram(north, south, bullet)``:
a half-diagram of caps for the north face, one for the south face, and an
optional single decoration ("bullet") on the westmost propagating edge, the
only propagating edge that can reach the west wall.  Every compatible triple
is a diagram, which gives the enumeration of the diagram basis.
``Diagram.from_tangle`` reads a tangle back into dyadic form, rejecting any
tangle that is not a basis diagram."""

from __future__ import annotations

import dataclasses
import functools
from math import comb

from tlh.ring import _arg
from tlh.tangle import DecoratedTangle, _iterable


@dataclasses.dataclass(frozen=True)
class HalfDiagram:
    """Caps on a single face: m nodes on a line, k disjoint non-crossing pairs.

    Pairs are (west endpoint, east endpoint, decoration) with decoration 0 or
    1.  No cap may cover an unpaired node (its propagating edge would have to
    cross the cap), and a decorated cap must be west-exposed: not nested
    inside another cap, and with no unpaired node to its west.  The hash is
    computed once.
    """

    m: int
    pairs: tuple = ()

    def __post_init__(self):
        if type(self.m) is not int or self.m < 0:
            raise ValueError(f"strand count must be a nonnegative integer, got {self.m!r}")
        pairs = tuple(_iterable("pairs", self.pairs))
        for p in pairs:  # every type before the sort compares them
            if not isinstance(p, (tuple, list)) or len(p) != 3:
                raise ValueError(f"cap must be (west, east, dec), got {p!r}")
            a, b, dec = p
            if not (type(a) is int and type(b) is int and 1 <= a < b <= self.m):  # no bools
                raise ValueError(f"bad cap endpoints ({a}, {b}) for {self.m} nodes")
            if type(dec) is not int or dec not in (0, 1):
                raise ValueError(f"cap decoration must be 0 or 1, got {dec!r}")
        pairs = tuple(sorted(tuple(p) for p in pairs))
        ends = {}  # node -> the cap on it
        for p in pairs:
            a, b, _ = p
            if a in ends or b in ends:
                raise ValueError(f"node on more than one cap in {pairs!r}")
            ends[a] = ends[b] = p
        # one west-to-east walk fills free_points; a crossing raises at once, the first other fault at the end
        free, open_caps, fault = [], [], None
        for x in range(1, self.m + 1):
            p = ends.get(x)
            if p is None:
                if open_caps and fault is None:
                    fault = f"cap ({open_caps[0][0]},{open_caps[0][1]}) covers an unpaired node"
                free.append(x)
            elif x == p[0]:
                if p[2] and (open_caps or free) and fault is None:
                    fault = f"decorated cap ({p[0]},{p[1]}) is not west-exposed"
                open_caps.append(p)
            else:  # x closes p, which must be the innermost open cap
                c, d, _ = open_caps.pop()
                if d != x:
                    raise ValueError(f"caps ({p[0]},{p[1]}) and ({c},{d}) cross")
        if fault:
            raise ValueError(fault)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "free_points", tuple(free))
        object.__setattr__(self, "_hash", hash((self.m, pairs)))

    @classmethod
    def _from_checked(cls, m: int, pairs: tuple, free_points: tuple) -> "HalfDiagram":
        """A face whose geometry is already checked: sorted caps and their free nodes."""
        h = object.__new__(cls)
        fields = h.__dict__  # the fields are frozen
        fields["m"], fields["pairs"], fields["free_points"], fields["_hash"] = m, pairs, free_points, hash((m, pairs))
        return h

    def __hash__(self) -> int:
        return self._hash

    @property
    def k(self) -> int:
        return len(self.pairs)

    def admissible(self) -> bool:
        """The face condition: no caps, or a decorated {1,2}, or a plain {i,i+1}, i > 1."""
        for a, b, dec in self.pairs:
            if b == a + 1 and dec == (a == 1):  # decorations are 0 or 1
                return True
        return not self.pairs

    @classmethod
    def figure_four(cls, m: int, k: int) -> "HalfDiagram":
        """The unique face with k caps excluded by the face condition."""
        if type(m) is not int or type(k) is not int:  # no bools
            raise ValueError(f"strand and cap counts must be integers, got {m!r} and {k!r}")
        if k < 1 or 2 * k > m:
            raise ValueError(f"no {k}-cap face on {m} nodes")
        return cls(m, ((1, 2, 0),) + tuple((2 * j - 1, 2 * j, 1) for j in range(2, k + 1)))

    def __str__(self) -> str:
        if not self.pairs:
            return "-"
        return " ".join(f"{a}-{b}" + "*" * dec for a, b, dec in self.pairs)

    def to_json(self) -> dict:
        return {"m": self.m, "caps": [list(p) for p in self.pairs]}


@dataclasses.dataclass(frozen=True)
class Diagram:
    """A basis diagram in dyadic form: north caps, south caps, bullet.

    The halves check their own planarity and west-exposure; this adds the
    argument types and what ties the halves together.  ``tangle`` is the
    diagram as a decorated tangle, built on first use.  The hash, which
    includes m, is computed once.
    """

    north: HalfDiagram
    south: HalfDiagram
    bullet: bool = False

    def __post_init__(self):
        north, south = self.north, self.south
        if type(north) is not HalfDiagram or type(south) is not HalfDiagram or type(self.bullet) is not bool:
            raise ValueError(f"a diagram needs two HalfDiagrams and a bool, got {north!r}, {south!r}, {self.bullet!r}")
        if north.m != south.m:
            raise ValueError(f"half-diagrams disagree on strands: {north.m} vs {south.m}")
        if north.k != south.k:
            raise ValueError(f"half-diagrams disagree on cap count: {north.k} vs {south.k}")
        if self.bullet and not 0 < 2 * north.k < north.m:
            raise ValueError("a bullet needs at least one cap and a propagating edge")
        for face, half in (("N", north), ("S", south)):
            if not half.admissible():
                raise ValueError(
                    f"face {face} has caps but no decorated 1-2 cap and no plain adjacent cap east of node 1"
                )
        object.__setattr__(self, "_hash", hash((north.m, north.pairs, south.pairs, self.bullet)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_tangle(cls, t: DecoratedTangle) -> "Diagram":
        """The basis diagram a square, loop-free tangle draws; ValueError if none.

        One walk over the boundary form (N i at i - 1, S j at 2m - j) sorts the arcs
        into caps and propagating edges and, with a stack of the open arcs, finds
        crossings and decorations cut off from the west wall: with no crossing, a
        decorated arc is cut off exactly when another arc is open where it starts.
        A tangle with neither has its faces built with no second check; any other
        goes through the face constructors, which name the fault."""
        _arg(t, (DecoratedTangle,), "Diagram.from_tangle needs a DecoratedTangle")
        try:
            if not t.is_square:
                raise ValueError(f"not square: {t.n_top} north, {t.n_bottom} south nodes")
            if t.loops:
                raise ValueError("contains closed loops")
            partner, dec = t.partner, t.dec
            if max(dec, default=0) > 1:
                raise ValueError("an edge carries more than one decoration")
            if -1 in partner:  # an uncovered node; checked before any half is built
                raise ValueError("propagating edges do not join the free nodes in order")
            m, size = t.n_top, 2 * t.n_top
            north, south, props = [], [], []  # props in west-to-east order of their north ends
            opened, faulty = [], False  # the arcs cross iff one closes while another opened later is open
            for i, j in enumerate(partner):
                if i < j:
                    r = dec[i]
                    if r and opened:  # trapped, unless the arcs cross
                        faulty = True
                    opened.append(j)
                    if j < m:
                        north.append((i + 1, j + 1, r))
                    elif i >= m:
                        south.append((size - j, size - i, r))
                    else:
                        props.append((i + 1, size - j, r))
                elif opened.pop() != i:
                    faulty = True
            if faulty:  # crossed or trapped: the face constructors name the first fault
                north, south = HalfDiagram(m, tuple(north)), HalfDiagram(m, tuple(south))
                if [(x, y) for x, y, _ in props] != list(zip(north.free_points, south.free_points)):
                    raise ValueError("propagating edges do not join the free nodes in order")
                if any(r for _, _, r in props[1:]):
                    raise ValueError("a propagating edge east of the westmost one is decorated")
            else:  # planar and west-exposed: no second check; free points are the propagating edges' ends
                north = HalfDiagram._from_checked(m, tuple(north), tuple([x for x, _, _ in props]))
                south = HalfDiagram._from_checked(m, tuple(sorted(south)), tuple([y for _, y, _ in props]))
            d = cls(north, south, bool(props) and props[0][2] == 1)
        except ValueError as exc:
            raise ValueError(f"not a basis diagram: {exc}") from None
        d.__dict__["tangle"] = t  # the tangle just checked is the one this draws
        return d

    @functools.cached_property
    def tangle(self) -> DecoratedTangle:
        """The diagram as a tangle, built straight from the dyadic form into the boundary form."""
        north, south = self.north, self.south
        m, size = north.m, 2 * north.m
        partner, dec = [-1] * size, [0] * size
        for a, b, r in north.pairs:
            partner[a - 1], partner[b - 1], dec[a - 1], dec[b - 1] = b - 1, a - 1, r, r
        for a, b, r in south.pairs:
            partner[size - a], partner[size - b], dec[size - a], dec[size - b] = size - b, size - a, r, r
        for x, y in zip(north.free_points, south.free_points):
            partner[x - 1], partner[size - y] = size - y, x - 1
        if self.bullet:  # on the westmost propagating edge
            x = north.free_points[0]
            dec[x - 1] = dec[partner[x - 1]] = 1
        return DecoratedTangle._trusted(m, m, partner, dec)

    @property
    def m(self) -> int:
        return self.north.m

    @property
    def k(self) -> int:
        """Number of caps on each face."""
        return self.north.k

    @property
    def prop_count(self) -> int:
        return self.m - 2 * self.k

    @property
    def is_identity(self) -> bool:
        return self.k == 0

    def star(self) -> "Diagram":
        return Diagram(self.south, self.north, self.bullet)

    def sort_key(self):
        return (self.k, self.north.pairs, self.south.pairs, self.bullet)

    def __str__(self) -> str:
        if self.is_identity:
            return f"id{self.m}"
        return f"|{self.north}><{self.south}|" + ("*" if self.bullet else "")

    def to_json(self) -> dict:
        return self.tangle.to_json()

    @classmethod
    def from_json(cls, obj: dict) -> "Diagram":
        return cls.from_tangle(DecoratedTangle.from_json(obj))


def generator_U(i: int, m: int) -> Diagram:
    """The generator with caps on nodes {i, i+1} of both faces, decorated iff i = 1."""
    if type(i) is not int or type(m) is not int:  # no bools
        raise ValueError(f"generator index and strand count must be integers, got {i!r} and {m!r}")
    if not 1 <= i <= m - 1:
        raise ValueError(f"generator index {i} out of range for {m} strands")
    dec = 1 if i == 1 else 0
    half = HalfDiagram(m, ((i, i + 1, dec),))
    return Diagram(half, half)


def _faces(points: tuple, k: int, exposed: bool):
    """Pairs of the k-cap faces on ordered points, caps covering no free point; while
    exposed (no free point or enclosing cap to the west), outer caps come plain and decorated."""
    if k == 0:
        yield ()
        return
    if len(points) < 2 * k:
        return
    p = points[0]
    yield from _faces(points[1:], k, False)  # p stays free
    for j in range(k):  # p caps points[i] over j inner caps
        i = 2 * j + 1
        for si in _faces(points[1:i], j, False):
            for so in _faces(points[i + 1 :], k - 1 - j, exposed):
                for dec in (0, 1) if exposed else (0,):
                    yield ((p, points[i], dec),) + si + so


def enumerate_generalized_half(m: int, k: int) -> tuple:
    """All k-cap faces with any west-exposed decoration pattern; count C(m, k)."""
    _arg(m, (int,), "strand count must be an integer")
    if _arg(k, (int,), "cap count must be an integer") < 0 or 2 * k > m:
        return ()
    out = [HalfDiagram(m, pairs) for pairs in _faces(tuple(range(1, m + 1)), k, True)]
    if len(out) != comb(m, k):
        raise RuntimeError(f"face count {len(out)} != C({m},{k})")
    return tuple(sorted(out, key=lambda h: h.pairs))


def enumerate_half(m: int, k: int) -> tuple:
    """All admissible k-cap faces; count C(m, k) - 1 for k > 0."""
    out = tuple(h for h in enumerate_generalized_half(m, k) if h.admissible())
    expect = comb(m, k) - (1 if k else 0) if 0 <= 2 * k <= m else 0
    if len(out) != expect:
        raise RuntimeError(f"admissible face count {len(out)} != {expect}")
    return out


def enumerate_diagrams(m: int) -> list:
    """All basis diagrams on m strands, in a fixed canonical order."""
    if _arg(m, (int,), "strand count must be an integer") < 1:
        raise ValueError(f"strand count must be positive, got {m}")
    out = []
    for k in range(0, m // 2 + 1):
        halves = enumerate_half(m, k)
        bullets = (False, True) if 0 < 2 * k < m else (False,)
        for north in halves:
            for south in halves:
                for bullet in bullets:
                    out.append(Diagram(north, south, bullet))
    return out
