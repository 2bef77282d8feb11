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
from typing import NamedTuple


class NodeRef(NamedTuple):
    """A boundary node: face 'N' or 'S', index counted from the west, 1-based."""

    face: str
    index: int

    @classmethod
    def parse(cls, text: str) -> "NodeRef":
        if len(text) >= 2 and text[0] in "NS" and text[1:].isdigit():
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
    planarity and west-exposure.
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
            if not isinstance(dec, int) or dec < 0:
                raise ValueError(f"bad decoration count {dec!r} on arc {a}-{b}")
            dup.update(seen.intersection((a, b)))
            seen.update((a, b))
            if self.position(a) > self.position(b):
                a, b = b, a
            norm.add((a, b, dec))
        if dup:
            raise ValueError(f"nodes on more than one arc: {', '.join(map(str, sorted(dup)))}")
        if any(not isinstance(r, int) or r < 0 for r in _iterable("loops", self.loops)):
            raise ValueError(f"bad loop decoration counts {self.loops!r}")
        object.__setattr__(self, "arcs", frozenset(norm))
        object.__setattr__(self, "loops", tuple(sorted(self.loops)))

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
        tangles whose glued boundary is perfectly matched.
        """
        if self.n_bottom != other.n_top:
            raise ValueError(
                f"cannot glue: top tangle has {self.n_bottom} south nodes, "
                f"bottom tangle has {other.n_top} north nodes"
            )
        # partner maps node -> (partner, decorations); upper is self, lower is other
        upper, lower = {}, {}
        for side, tangle in ((upper, self), (lower, other)):
            for a, b, dec in tangle.arcs:
                side[a], side[b] = (b, dec), (a, dec)
        for i in range(1, self.n_bottom + 1):
            halves = (NodeRef("S", i) in upper) + (NodeRef("N", i) in lower)
            if halves != 2:
                raise ValueError(f"glued node {i} lies on {halves} arcs; tangles must be fully matched")
        glued = set()  # indices of glued nodes already walked through

        def walk(up, node):
            """Follow the strand leaving node; its outer end (None for a loop) and decorations."""
            start, total = (up, node), 0
            while True:
                node, dec = (upper if up else lower)[node]
                total += dec
                if (node.face == "S") != up:  # an outer node: N above, S below
                    return node, total
                glued.add(node.index)
                up, node = not up, NodeRef("N" if up else "S", node.index)
                if (up, node) == start:
                    return None, total

        arcs, ends = set(), set()
        outer = [(True, NodeRef("N", i)) for i in range(1, self.n_top + 1)]
        outer += [(False, NodeRef("S", i)) for i in range(1, other.n_bottom + 1)]
        for up, start in outer:
            if start in ends:
                continue
            if start not in (upper if up else lower):
                raise ValueError(f"outer node {start} is not on any arc")
            end, total = walk(up, start)
            ends.add(end)
            arcs.add((start, end, total))
        loops = list(self.loops) + list(other.loops)
        loops += [walk(True, NodeRef("S", i))[1] for i in range(1, self.n_bottom + 1) if i not in glued]
        result = DecoratedTangle(self.n_top, other.n_bottom, frozenset(arcs), tuple(loops))
        for arc in sorted(arc for arc in result.arcs if arc[2]):  # sorted: not in hash-seeded set order
            if not result.west_exposed(arc):
                raise ValueError(f"gluing produced a trapped decoration on {arc[0]}-{arc[1]}")
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
