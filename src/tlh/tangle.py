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
        if isinstance(text, str) and len(text) >= 2 and text[0] in "NS" and text[1:].isascii() and text[1:].isdigit():
            return cls(text[0], int(text[1:]))
        raise ValueError(f"bad node reference {text!r} (expected e.g. 'N3' or 'S1')")

    def __str__(self) -> str:
        return f"{self.face}{self.index}"


def _iterable(name: str, value):
    """value itself, or ValueError naming the argument if it cannot be iterated."""
    if not hasattr(value, "__iter__"):
        raise ValueError(f"{name} must be iterable, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True, slots=True, init=False)
class DecoratedTangle:
    """An immutable decorated tangle, stored in boundary form.

    ``partner`` and ``dec`` run over the linearized positions: the position
    at the other end of the node's arc (-1 if the node is on none) and that
    arc's decoration count (0 if none); ``loops`` holds the decoration count
    of each closed loop, sorted.  Equality and hashing use this form.  From
    outside (JSON, the confluence suite's rewrites) a tangle enters through
    the public constructor, which takes arcs, triples (a, b, dec) of
    ``NodeRef``s and a count, and checks them (nodes in range, each node on
    at most one arc, non-negative int counts) but not geometry; from the
    program, through ``_trusted``.  ``arcs`` gives the arcs back.  A tangle
    becomes a basis diagram only through ``Diagram.from_tangle``, which
    checks planarity and west-exposure.
    """

    n_top: int
    n_bottom: int
    partner: tuple
    dec: tuple
    loops: tuple

    def __init__(self, n_top: int, n_bottom: int, arcs=frozenset(), loops=()):
        if type(n_top) is not int or type(n_bottom) is not int:  # no bools
            raise ValueError(f"boundary widths must be integers, got {n_top!r}, {n_bottom!r}")
        if n_top < 0 or n_bottom < 0:
            raise ValueError(f"negative boundary width: {n_top}, {n_bottom}")
        size = n_top + n_bottom
        partner, dec, dup = [-1] * size, [0] * size, set()
        for arc in _iterable("arcs", arcs):
            if not isinstance(arc, (tuple, list)) or len(arc) != 3:
                raise ValueError(f"arc must be (a, b, dec), got {arc!r}")
            a, b, r = arc
            for ref in (a, b):
                if not isinstance(ref, NodeRef) or type(ref.index) is not int:  # no bools
                    raise ValueError(f"arc endpoint {ref!r} is not a NodeRef with an integer index")
                width = n_top if ref.face == "N" else n_bottom if ref.face == "S" else None
                if width is None or not 1 <= ref.index <= width:
                    raise ValueError(f"node {ref} out of range for widths ({n_top}, {n_bottom})")
            if a == b:
                raise ValueError(f"arc joins node {a} to itself")
            if type(r) is not int or r < 0:  # no bools
                raise ValueError(f"bad decoration count {r!r} on arc {a}-{b}")
            i = a.index - 1 if a.face == "N" else size - a.index
            j = b.index - 1 if b.face == "N" else size - b.index
            dup.update(ref for ref, p in ((a, i), (b, j)) if partner[p] >= 0)  # on an earlier arc
            partner[i], partner[j], dec[i], dec[j] = j, i, r, r
        if dup:
            raise ValueError(f"nodes on more than one arc: {', '.join(map(str, sorted(dup)))}")
        counts = tuple(_iterable("loops", loops))  # read once: loops may be an iterator
        if any(type(r) is not int or r < 0 for r in counts):  # no bools
            shown = loops if isinstance(loops, (tuple, list)) else counts  # an iterator shows what it held
            raise ValueError(f"bad loop decoration counts {shown!r}")
        self._store(n_top, n_bottom, partner, dec, counts)

    @classmethod
    def _trusted(cls, n_top: int, n_bottom: int, partner, dec, loops=()) -> "DecoratedTangle":
        """The tangle with this boundary form, unchecked.

        Only for arrays built from checked ones by steps that keep them
        valid: a gluing walk (``concat``), a decoration split
        (``normal_form``), a checked diagram's form (``Diagram.tangle``).
        """
        return object.__new__(cls)._store(n_top, n_bottom, partner, dec, loops)

    def _store(self, n_top, n_bottom, partner, dec, loops) -> "DecoratedTangle":
        store = object.__setattr__  # the fields are frozen
        store(self, "n_top", n_top)
        store(self, "n_bottom", n_bottom)
        store(self, "partner", tuple(partner))
        store(self, "dec", tuple(dec))
        store(self, "loops", tuple(sorted(loops)))
        return self

    @property
    def arcs(self) -> frozenset:
        """The arcs (a, b, dec), each with a before b in linearized order."""
        return frozenset(self._arc_list())

    def _arc_list(self) -> list:  # in linearized order of their first, then second, ends
        refs = _refs(self.n_top, self.n_bottom)
        return [(refs[i], refs[j], self.dec[i]) for i, j in enumerate(self.partner) if i < j]

    @property
    def is_square(self) -> bool:
        return self.n_top == self.n_bottom

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
        the two boundary forms in place: glued node g + 1 is self's position
        n - 1 - g (n = n_top + n_bottom of self) and other's position g.
        """
        if self.n_bottom != other.n_top:
            raise ValueError(
                f"cannot glue: top tangle has {self.n_bottom} south nodes, "
                f"bottom tangle has {other.n_top} north nodes"
            )
        top, glued, bottom = self.n_top, self.n_bottom, other.n_bottom
        n, shift = top + glued, top - glued  # other's position q >= glued is the result's q + shift
        upper, upper_dec = self.partner, self.dec
        lower, lower_dec = other.partner, other.dec
        if -1 in upper or -1 in lower:  # an uncovered node: name the first
            for i in range(1, glued + 1):
                halves = (upper[n - i] >= 0) + (lower[i - 1] >= 0)
                if halves != 2:
                    raise ValueError(f"glued node {i} lies on {halves} arcs; tangles must be fully matched")
            for p in (*range(top), *range(top + bottom - 1, top - 1, -1)):  # N1, N2, ..., then S1, S2, ...
                if (upper[p] if p < top else lower[p - shift]) < 0:
                    raise ValueError(f"outer node {_refs(top, bottom)[p]} is not on any arc")
        walked = bytearray(glued)  # by glued node
        out, out_dec = [-1] * (top + bottom), [0] * (top + bottom)
        for s in range(top + bottom):
            if out[s] >= 0:  # the far end of a strand already walked
                continue
            if s < top:
                q, total = upper[s], upper_dec[s]
            else:  # up through glued node q + 1, unless the arc ends on other's south edge
                q, total = lower[s - shift], lower_dec[s - shift]
                if q >= glued:
                    out[s], out[q + shift], out_dec[s], out_dec[q + shift] = q + shift, s, total, total
                    continue
                walked[q] = 1
                q, total = upper[n - 1 - q], total + upper_dec[n - 1 - q]
            while q >= top:  # down through glued node n - q, then up again or out below
                g = n - 1 - q
                walked[g] = 1
                q, total = lower[g], total + lower_dec[g]
                if q >= glued:
                    q += shift
                    break
                walked[q] = 1
                q, total = upper[n - 1 - q], total + upper_dec[n - 1 - q]
            out[s], out[q], out_dec[s], out_dec[q] = q, s, total, total
        loops = [*self.loops, *other.loops]
        for start in range(glued):
            if not walked[start]:  # a glued node no strand passed: a new loop
                g, total = start, 0
                while True:  # down through glued node g + 1, up through glued node q + 1
                    q = lower[g]
                    p = n - 1 - q
                    walked[g] = walked[q] = 1
                    g, total = n - 1 - upper[p], total + lower_dec[g] + upper_dec[p]
                    if g == start:
                        break
                loops.append(total)
        result = DecoratedTangle._trusted(top, bottom, out, out_dec, loops)
        trapped = _trapped(out, out_dec)
        if trapped:
            refs = _refs(top, bottom)
            i = min(trapped, key=refs.__getitem__)  # the arc that sorted(result.arcs) lists first
            raise ValueError(f"gluing produced a trapped decoration on {refs[i]}-{refs[out[i]]}")
        return result

    # -- presentation ------------------------------------------------------

    def __str__(self) -> str:
        bits = [f"{a}-{b}" + "*" * dec for a, b, dec in self._arc_list()]
        bits += [f"(loop{'*' * r})" for r in self.loops]
        return f"[{self.n_top}|{self.n_bottom}] " + " ".join(bits) if bits else f"[{self.n_top}|{self.n_bottom}] empty"

    def to_json(self) -> dict:
        return {
            "n_top": self.n_top,
            "n_bottom": self.n_bottom,
            "arcs": [
                {"from": str(a), "to": str(b), "dec": dec} for a, b, dec in self._arc_list()
            ],
            "loops": list(self.loops),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DecoratedTangle":
        if not isinstance(obj, dict):
            raise ValueError(f"tangle must be a JSON object, got {type(obj).__name__}")
        try:
            n_top, n_bottom = obj["n_top"], obj["n_bottom"]
            arcs = [
                (NodeRef.parse(a["from"]), NodeRef.parse(a["to"]), a.get("dec", 0))
                for a in obj.get("arcs", [])
            ]
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


def _trapped(partner, dec) -> list:
    """First positions of the decorated arcs that another arc strictly encloses, in one prefix-max scan.

    An arc (a, b), a < b, is enclosed iff some arc (c, d) has c < a < b < d,
    that is, iff the largest partner of a position before a exceeds b: a
    position c < a whose partner lies below c cannot exceed b.  This is the
    pairwise west-exposure verdict, whether or not the arcs cross.
    """
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
    if any(type(x) is not int for x in (n_top, n_bottom, max_dec, n_loops)):  # no bools
        raise ValueError(f"tangle sizes must be integers, got {n_top!r}, {n_bottom!r}, {max_dec!r}, {n_loops!r}")
    if n_top < 0 or n_bottom < 0:  # before the widths reach the cached _refs
        raise ValueError(f"negative boundary width: {n_top}, {n_bottom}")
    for name, x in (("max_dec", max_dec), ("n_loops", n_loops)):
        if x < 0:
            raise ValueError(f"{name} must be nonnegative, got {x}")
    if (n_top + n_bottom) % 2:
        raise ValueError(f"odd boundary ({n_top} + {n_bottom}) admits no tangle")
    size = n_top + n_bottom
    pairs = random_matching(rng, list(range(size)))  # positions, each pair in boundary order
    partner, dec = [0] * size, [0] * size
    for i, j in pairs:
        partner[i], partner[j] = j, i
    hidden = set(_trapped(partner, [1] * size))  # the first ends of the arcs another arc encloses
    for i, j in pairs:  # in matching order, so that the draws do not depend on hashing
        if i not in hidden:
            dec[i] = dec[j] = rng.choice([0, 0, 1, 1, rng.randint(0, max_dec)])
    loops = tuple(rng.randint(0, max_dec) for _ in range(n_loops))
    refs = _refs(n_top, n_bottom)
    return DecoratedTangle(n_top, n_bottom, frozenset((refs[i], refs[j], dec[i]) for i, j in pairs), loops)
