"""Decorated planar tangles in a rectangular frame.

A tangle has numbered nodes on its north edge (west to east) and south edge
(west to east), joined pairwise by non-crossing arcs; it may also contain
closed loops.  Arcs and loops carry a count of decorations, and a decoration
is only meaningful on an edge that can reach the west wall of the frame
without crossing anything ("west-exposed").

Walking the boundary clockwise from a cut in the west wall visits
N1, ..., Nt, S_b, ..., S1, which linearizes the frame to a disk: arcs become
chords, planarity becomes non-interleaving of chords, and west-exposure of
an arc becomes "not strictly nested inside another arc".

Tangles of matching widths compose by vertical stacking; decoration counts
add along glued paths, and closed loops record their total decoration count.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import NamedTuple


class NodeRef(NamedTuple):
    """A boundary node: face 'N' or 'S', index counted from the west, 1-based."""

    face: str
    index: int

    @classmethod
    def parse(cls, text: str) -> "NodeRef":
        if len(text) >= 2 and text[0] in "NS" and text[1:].isascii() and text[1:].isdigit():
            return cls(text[0], int(text[1:]))
        raise ValueError(f"bad node reference {text!r} (expected e.g. 'N3' or 'S1')")

    def __str__(self) -> str:
        return f"{self.face}{self.index}"


Arc = tuple[NodeRef, NodeRef, int]


def _iterable(name: str, value):
    """value itself, or ValueError naming the argument if it cannot be iterated."""
    if not hasattr(value, "__iter__"):
        raise ValueError(f"{name} must be iterable, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class DecoratedTangle:
    """An immutable decorated tangle.

    ``arcs`` holds triples (a, b, dec) with endpoints in linearized order and
    dec the number of decorations on that arc; ``loops`` holds the decoration
    count of each closed loop.  The constructor enforces structural sanity
    (nodes in range, each node on at most one arc) but not geometry.  Tangles
    serve gluing, JSON input and the confluence suite; a tangle becomes a
    basis diagram only through ``Diagram.from_tangle``, whose faces check
    planarity and west-exposure.  ``boundary`` holds the same arcs as two
    arrays over the linearized positions; gluing, reduction and the basis
    read-back run on it.
    """

    n_top: int
    n_bottom: int
    arcs: frozenset = frozenset()
    loops: tuple = ()

    def __post_init__(self):
        if type(self.n_top) is not int or type(self.n_bottom) is not int:  # no bools
            raise ValueError(f"boundary widths must be integers, got {self.n_top!r}, {self.n_bottom!r}")
        if self.n_top < 0 or self.n_bottom < 0:
            raise ValueError(f"negative boundary width: {self.n_top}, {self.n_bottom}")
        norm, seen, dup = set(), set(), set()
        for arc in _iterable("arcs", self.arcs):
            if not isinstance(arc, (tuple, list)) or len(arc) != 3:
                raise ValueError(f"arc must be (a, b, dec), got {arc!r}")
            a, b, dec = arc
            for ref in (a, b):
                if not isinstance(ref, NodeRef) or type(ref.index) is not int:  # no bools
                    raise ValueError(f"arc endpoint {ref!r} is not a NodeRef with an integer index")
                width = self.n_top if ref.face == "N" else self.n_bottom if ref.face == "S" else None
                if width is None or not 1 <= ref.index <= width:
                    raise ValueError(f"node {ref} out of range for widths ({self.n_top}, {self.n_bottom})")
            if a == b:
                raise ValueError(f"arc joins node {a} to itself")
            if type(dec) is not int or dec < 0:  # no bools
                raise ValueError(f"bad decoration count {dec!r} on arc {a}-{b}")
            dup.update(seen.intersection((a, b)))
            seen.update((a, b))
            if self.position(a) > self.position(b):
                a, b = b, a
            norm.add((a, b, dec))
        if dup:
            raise ValueError(f"nodes on more than one arc: {', '.join(map(str, sorted(dup)))}")
        if any(type(r) is not int or r < 0 for r in _iterable("loops", self.loops)):
            raise ValueError(f"bad loop decoration counts {self.loops!r}")
        object.__setattr__(self, "arcs", frozenset(norm))
        object.__setattr__(self, "loops", tuple(sorted(self.loops)))

    @classmethod
    def _from_boundary(cls, n_top: int, n_bottom: int, partner, dec, loops=()) -> "DecoratedTangle":
        """The tangle with this boundary form, checked in one pass.

        ``partner`` must be an involution without fixed points on the covered
        positions (-1 marks an uncovered one), ``dec`` must hold the same
        non-negative int at both ends of each arc, and every loop count must
        be a non-negative int: the constructor's invariants on the arrays.
        """
        size = n_top + n_bottom
        if len(partner) != size or len(dec) != size:
            raise ValueError(f"boundary form of length {len(partner)}, {len(dec)} for widths ({n_top}, {n_bottom})")
        refs = _refs(n_top, n_bottom)
        arcs = []
        for i, j in enumerate(partner):
            if i < j < size and partner[j] == i:  # the first end of an arc
                r = dec[i]
                if type(r) is not int or r < 0 or dec[j] != r:  # no bools
                    raise ValueError(f"bad decoration count {r!r} on arc {refs[i]}-{refs[j]}")
                arcs.append((refs[i], refs[j], r))
            elif j == -1:
                if dec[i] != 0:
                    raise ValueError(f"decoration count {dec[i]!r} on node {refs[i]}, which is on no arc")
            elif not (0 <= j < i and partner[j] == i):  # unless the second end of an arc
                raise ValueError(
                    f"arc joins node {refs[i]} to itself" if j == i
                    else f"nodes on more than one arc: {refs[j]}" if 0 <= j < size
                    else f"node {refs[i]} is joined to position {j!r}, outside the frame"
                )
        if any(type(r) is not int or r < 0 for r in loops):
            raise ValueError(f"bad loop decoration counts {tuple(loops)!r}")
        t = cls.__new__(cls)
        t.__dict__.update(
            n_top=n_top, n_bottom=n_bottom, arcs=frozenset(arcs), loops=tuple(sorted(loops)),
            boundary=(tuple(partner), tuple(dec)),
        )
        return t

    @functools.cached_property
    def boundary(self) -> tuple:
        """(partner, dec) by linearized position: the position at the other end
        of the node's arc (-1 if the node is on none) and that arc's decoration
        count (0 if none).  Built once from ``arcs``, or handed over by ``_from_boundary``."""
        partner, dec = [-1] * (self.n_top + self.n_bottom), [0] * (self.n_top + self.n_bottom)
        for a, b, r in self.arcs:
            i, j = self.position(a), self.position(b)
            partner[i], partner[j], dec[i], dec[j] = j, i, r, r
        return tuple(partner), tuple(dec)

    # -- geometry ----------------------------------------------------------

    def position(self, ref: NodeRef) -> int:
        """Linearized boundary position, clockwise from the west cut."""
        if ref.face == "N":
            return ref.index - 1
        return self.n_top + self.n_bottom - ref.index

    @property
    def is_square(self) -> bool:
        return self.n_top == self.n_bottom

    def sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs, key=lambda arc: (self.position(arc[0]), self.position(arc[1])))

    def west_exposed(self, arc: Arc) -> bool:
        """True if the arc can be joined to the west wall: no arc strictly encloses it."""
        a, b = self.position(arc[0]), self.position(arc[1])
        for other in self.arcs:
            c, d = self.position(other[0]), self.position(other[1])
            if c < a and b < d:
                return False
        return True

    # -- construction helpers ---------------------------------------------

    @classmethod
    def identity(cls, m: int) -> "DecoratedTangle":
        return cls(m, m, frozenset((NodeRef("N", i), NodeRef("S", i), 0) for i in range(1, m + 1)))

    # -- composition -------------------------------------------------------

    def concat(self, other: "DecoratedTangle") -> "DecoratedTangle":
        """Stack self above other, gluing self's south edge to other's north edge.

        Decoration counts add along each glued path; closed paths through the
        glued layer become loops.  Both inputs must be loop-permitting valid
        tangles whose glued boundary is perfectly matched.  The walk runs on
        the two boundary forms laid end to end: self's positions 0..n-1, then
        other's shifted by n, so that glued node i sits at n - i above and at
        n + i - 1 below, and crossing the glued layer maps q to 2n - 1 - q.
        """
        if self.n_bottom != other.n_top:
            raise ValueError(
                f"cannot glue: top tangle has {self.n_bottom} south nodes, "
                f"bottom tangle has {other.n_top} north nodes"
            )
        top, glued, bottom = self.n_top, self.n_bottom, other.n_bottom
        n = top + glued
        upper, upper_dec = self.boundary
        lower, lower_dec = other.boundary
        for i in range(1, glued + 1):
            halves = (upper[n - i] >= 0) + (lower[i - 1] >= 0)
            if halves != 2:
                raise ValueError(f"glued node {i} lies on {halves} arcs; tangles must be fully matched")
        outer = n + glued  # glued positions run from top to outer - 1; the outer ones lie below top or from outer on
        if -1 in upper or -1 in lower:  # an outer node, since every glued one is covered
            for ref, q in [(NodeRef("N", i), i - 1) for i in range(1, top + 1)] + [
                (NodeRef("S", i), outer + bottom - i) for i in range(1, bottom + 1)
            ]:
                if (upper[q] if q < top else lower[q - n]) < 0:
                    raise ValueError(f"outer node {ref} is not on any arc")
        partner = upper + tuple(q + n for q in lower)
        dec = upper_dec + lower_dec
        mirror, shift = 2 * n - 1, outer - top  # q -> mirror - q crosses the glued layer; q - shift places a bottom node
        walked = bytearray(outer)
        out, out_dec = [-1] * (top + bottom), [0] * (top + bottom)
        for start in (*range(top), *range(outer, outer + bottom)):
            s = start if start < top else start - shift
            if out[s] >= 0:  # the far end of a strand already walked
                continue
            p, total = start, 0
            while True:
                q = partner[p]
                total += dec[p]
                if q < top or q >= outer:
                    break
                walked[q] = walked[mirror - q] = 1
                p = mirror - q
            e = q if q < top else q - shift
            out[s], out[e], out_dec[s], out_dec[e] = e, s, total, total
        loops = list(self.loops) + list(other.loops)
        for start in range(top, n):
            if not walked[start]:  # a glued node no strand passed: a new loop
                p, total = start, 0
                while True:
                    q = partner[p]
                    total += dec[p]
                    walked[q] = walked[mirror - q] = 1
                    p = mirror - q
                    if p == start:
                        break
                loops.append(total)
        result = DecoratedTangle._from_boundary(top, bottom, out, out_dec, loops)
        trapped = _trapped(result.boundary)
        if trapped:
            refs = _refs(top, bottom)
            i = min(trapped, key=refs.__getitem__)  # the arc that sorted(result.arcs) lists first
            raise ValueError(f"gluing produced a trapped decoration on {refs[i]}-{refs[out[i]]}")
        return result

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        bits = [f"{a}-{b}" + "*" * dec for a, b, dec in self.sorted_arcs()]
        bits += [f"(loop{'*' * r})" for r in self.loops]
        return f"[{self.n_top}|{self.n_bottom}] " + " ".join(bits) if bits else f"[{self.n_top}|{self.n_bottom}] empty"

    def to_json(self) -> dict:
        return {
            "n_top": self.n_top,
            "n_bottom": self.n_bottom,
            "arcs": [
                {"from": str(a), "to": str(b), "dec": dec} for a, b, dec in self.sorted_arcs()
            ],
            "loops": list(self.loops),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DecoratedTangle":
        if not isinstance(obj, dict):
            raise ValueError(f"tangle must be a JSON object, got {type(obj).__name__}")
        try:
            n_top, n_bottom = obj["n_top"], obj["n_bottom"]
            arcs = frozenset(
                (NodeRef.parse(a["from"]), NodeRef.parse(a["to"]), a.get("dec", 0))
                for a in obj.get("arcs", [])
            )
            loops = tuple(obj.get("loops", []))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed tangle object: {exc}") from exc
        if any(type(c) is not int for c in (n_top, n_bottom, *(dec for _, _, dec in arcs), *loops)):
            raise ValueError("tangle widths, decorations and loop counts must be integers (not booleans)")
        return cls(n_top, n_bottom, arcs, loops)


@functools.cache
def _refs(n_top: int, n_bottom: int) -> tuple:
    """The node at each linearized position of a frame: N1..N{n_top}, then S{n_bottom}..S1."""
    return tuple(NodeRef("N", i) for i in range(1, n_top + 1)) + tuple(NodeRef("S", j) for j in range(n_bottom, 0, -1))


def _trapped(boundary: tuple) -> list:
    """First positions of the decorated arcs that another arc strictly encloses, in one prefix-max scan.

    An arc (a, b), a < b, is enclosed iff some arc (c, d) has c < a < b < d,
    that is, iff the largest partner of a position before a exceeds b: a
    position c < a whose partner lies below c cannot exceed b.  This is
    ``west_exposed``'s verdict, whether or not the arcs cross.
    """
    partner, dec = boundary
    trapped, reach = [], -1
    for i, j in enumerate(partner):
        if i < j and dec[i] and reach > j:
            trapped.append(i)
        if j > reach:
            reach = j
    return trapped


def random_matching(rng, points: list) -> list[tuple]:
    """A random non-crossing perfect matching of an even-length sequence."""
    if len(points) % 2:
        raise ValueError("cannot match an odd number of points")
    if not points:
        return []
    j = rng.randrange(1, len(points), 2)
    pairs = [(points[0], points[j])]
    pairs += random_matching(rng, points[1:j])
    pairs += random_matching(rng, points[j + 1 :])
    return pairs


def random_tangle(rng, n_top: int, n_bottom: int, max_dec: int = 2, n_loops: int = 0) -> "DecoratedTangle":
    """A random valid decorated tangle, for property tests."""
    if (n_top + n_bottom) % 2:
        raise ValueError(f"odd boundary ({n_top} + {n_bottom}) admits no tangle")
    refs = [NodeRef("N", i) for i in range(1, n_top + 1)] + [
        NodeRef("S", i) for i in range(n_bottom, 0, -1)
    ]  # boundary order
    pairs = random_matching(rng, refs)
    bare = DecoratedTangle(n_top, n_bottom, frozenset((a, b, 0) for a, b in pairs))
    arcs = frozenset(  # in matching order, since a frozenset's order follows string hashing
        (a, b, rng.choice([0, 0, 1, 1, rng.randint(0, max_dec)]) if bare.west_exposed((a, b, 0)) else 0)
        for a, b in pairs
    )
    loops = tuple(rng.randint(0, max_dec) for _ in range(n_loops))
    return DecoratedTangle(n_top, n_bottom, arcs, loops)
