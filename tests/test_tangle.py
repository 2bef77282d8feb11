"""Decorated-tangle geometry: linearization, validation, gluing."""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlh.algebra import AlgebraElement, normal_form
from tlh.diagram import Diagram, enumerate_diagrams
from tlh.tangle import DecoratedTangle, NodeRef, _refs, _trapped, random_matching, random_tangle

N = lambda i: NodeRef("N", i)
S = lambda i: NodeRef("S", i)


def cap_tangle(m: int, i: int, dec: int) -> DecoratedTangle:
    """Caps {i, i+1} on both faces carrying dec decorations, rest vertical."""
    arcs = {(N(i), N(i + 1), dec), (S(i), S(i + 1), dec)}
    arcs |= {(N(j), S(j), 0) for j in range(1, m + 1) if j not in (i, i + 1)}
    return DecoratedTangle(m, m, frozenset(arcs))


def U(i: int, m: int) -> DecoratedTangle:
    return cap_tangle(m, i, 1 if i == 1 else 0)


def position(t: DecoratedTangle, ref: NodeRef) -> int:
    """A node's linearized boundary position, clockwise from the west cut."""
    return ref.index - 1 if ref.face == "N" else t.n_top + t.n_bottom - ref.index


def sorted_arcs(t: DecoratedTangle) -> list:
    """The arcs sorted by the positions of their ends: the order str and to_json list them in."""
    return sorted(t.arcs, key=lambda arc: (position(t, arc[0]), position(t, arc[1])))


def west_exposed(t: DecoratedTangle, arc) -> bool:
    """True if no arc strictly encloses this one: the pairwise oracle for _trapped."""
    a, b = position(t, arc[0]), position(t, arc[1])
    return not any(position(t, c) < a and b < position(t, d) for c, d, _ in t.arcs)


def validate(t: DecoratedTangle) -> list[str]:
    """All geometric violations of a tangle, as human-readable strings; [] if valid.

    The pairwise planarity and west-exposure check, kept as the oracle for
    gluing, random tangles and the basis check of Diagram.from_tangle.
    """
    problems = []
    covered = {ref for arc in t.arcs for ref in arc[:2]}
    for face, width in (("N", t.n_top), ("S", t.n_bottom)):
        for i in range(1, width + 1):
            if NodeRef(face, i) not in covered:
                problems.append(f"node {face}{i} is not on any arc")
    arcs = sorted_arcs(t)
    for i, x in enumerate(arcs):
        a, b = position(t, x[0]), position(t, x[1])
        for y in arcs[i + 1 :]:
            c, d = position(t, y[0]), position(t, y[1])
            if a < c < b < d or c < a < d < b:
                problems.append(f"arcs {x[0]}-{x[1]} and {y[0]}-{y[1]} cross")
    for arc in arcs:
        if arc[2] > 0 and not west_exposed(t, arc):
            problems.append(f"decorated arc {arc[0]}-{arc[1]} is not west-exposed")
    return problems


def flip(t: DecoratedTangle) -> DecoratedTangle:
    """Reflect a tangle top-to-bottom: the oracle for Diagram.star."""
    swap = lambda r: NodeRef("S" if r.face == "N" else "N", r.index)
    return DecoratedTangle(
        t.n_bottom, t.n_top, frozenset((swap(a), swap(b), dec) for a, b, dec in t.arcs), t.loops
    )


def test_noderef_parse_and_str():
    assert NodeRef.parse("N3") == N(3)
    assert NodeRef.parse("S12") == S(12)
    assert str(S(1)) == "S1"
    not_strings = [5, None, b"N3", ["N", "3"]]
    for bad in ["X3", "N", "3", "Nx", "", "N\u0661", "S\u00b2", *not_strings]:  # Arabic-Indic one, superscript two
        with pytest.raises(ValueError, match="bad node reference"):
            NodeRef.parse(bad)


@pytest.mark.parametrize("widths", [(1.0, 1), (1, 2.0), (True, 1), (1, False), (1, "1")])
def test_constructor_rejects_non_integer_widths(widths):
    with pytest.raises(ValueError, match="boundary widths must be integers"):
        DecoratedTangle(*widths)


@pytest.mark.parametrize("kwargs, name", [({"arcs": 5}, "arcs"), ({"loops": None}, "loops")])
def test_constructor_rejects_non_iterable_arcs_and_loops(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be iterable"):
        DecoratedTangle(1, 1, **kwargs)


@pytest.mark.parametrize(
    "arc, message",
    [
        (5, "arc must be"),
        ((N(1), S(1)), "arc must be"),
        ((N(1), NodeRef("S", "x"), 0), "integer index"),
        ((N(1), NodeRef("S", True), 0), "integer index"),
        ((N(1), S(1), True), "bad decoration count True"),  # from_json refuses the true to_json writes
    ],
    ids=["int", "pair", "str-index", "bool-index", "bool-dec"],
)
def test_constructor_rejects_malformed_arc_entries(arc, message):
    with pytest.raises(ValueError, match=message):
        DecoratedTangle(1, 1, [arc])


def test_linearized_positions_frozen():
    assert _refs(3, 2) == (N(1), N(2), N(3), S(2), S(1))
    t = DecoratedTangle(3, 2, frozenset({(N(1), S(1), 1), (S(2), N(2), 0)}))
    assert (t.partner, t.dec) == ((4, 3, -1, 1, 0), (1, 0, 0, 0, 1))
    assert [position(t, r) for r in _refs(3, 2)] == [0, 1, 2, 3, 4]


def test_constructor_rejects_structural_garbage():
    with pytest.raises(ValueError, match="out of range"):
        DecoratedTangle(2, 2, frozenset({(N(1), N(3), 0)}))
    with pytest.raises(ValueError, match="itself"):
        DecoratedTangle(2, 2, frozenset({(N(1), N(1), 0)}))
    with pytest.raises(ValueError, match="more than one arc"):
        DecoratedTangle(2, 2, frozenset({(N(1), N(2), 0), (N(1), S(1), 0)}))
    with pytest.raises(ValueError, match="^nodes on more than one arc: N2, S1$"):  # sorted
        DecoratedTangle(2, 2, frozenset({(S(1), N(2), 0), (N(2), S(2), 0), (S(1), N(1), 0)}))
    with pytest.raises(ValueError, match="decoration"):
        DecoratedTangle(2, 2, frozenset({(N(1), N(2), -1)}))
    with pytest.raises(ValueError, match="loop"):
        DecoratedTangle(0, 0, loops=(-2,))
    with pytest.raises(ValueError, match="loop"):
        DecoratedTangle(0, 0, loops=(True,))


def test_validate_reports_problems():
    assert validate(DecoratedTangle.identity(4)) == []
    # uncovered nodes
    t = DecoratedTangle(2, 2, frozenset({(N(1), N(2), 0)}))
    assert sorted(validate(t)) == ["node S1 is not on any arc", "node S2 is not on any arc"]
    # crossing
    t = DecoratedTangle(4, 0, frozenset({(N(1), N(3), 0), (N(2), N(4), 0)}))
    assert any("cross" in p for p in validate(t))
    # trapped decoration
    t = DecoratedTangle(4, 0, frozenset({(N(1), N(4), 0), (N(2), N(3), 1)}))
    assert validate(t) == ["decorated arc N2-N3 is not west-exposed"]
    # same nesting, undecorated: fine
    t = DecoratedTangle(4, 0, frozenset({(N(1), N(4), 1), (N(2), N(3), 0)}))
    assert validate(t) == []


def test_west_exposed():
    t = DecoratedTangle(4, 0, frozenset({(N(1), N(4), 0), (N(2), N(3), 0)}))
    outer = next(a for a in t.arcs if a[1] == N(4))
    inner = next(a for a in t.arcs if a[1] == N(3))
    assert west_exposed(t, outer)
    assert not west_exposed(t, inner)
    # south arcs enclose north arcs across the cut only via the east side
    t2 = DecoratedTangle(2, 2, frozenset({(N(1), S(1), 0), (N(2), S(2), 0)}))
    for arc in t2.arcs:
        assert west_exposed(t2, arc) == (arc[0] == N(1))


def test_identity_is_neutral():
    rng = random.Random(5)
    for _ in range(20):
        t = random_tangle(rng, 3, 3)
        e = DecoratedTangle.identity(3)
        assert e.concat(t) == t
        assert t.concat(e) == t


def concat_reference(top: DecoratedTangle, bottom: DecoratedTangle) -> DecoratedTangle:
    """The earlier gluing over a tagged adjacency graph, kept as an oracle for concat."""
    if top.n_bottom != bottom.n_top:
        raise ValueError(
            f"cannot glue: top tangle has {top.n_bottom} south nodes, "
            f"bottom tangle has {bottom.n_top} north nodes"
        )
    # nodes: ("T", i) outer top, ("B", i) outer bottom, ("M", i) glued middle
    adj: dict[tuple, list] = {}

    def add(node, entry):
        adj.setdefault(node, []).append(entry)

    for a, b, dec in top.arcs:
        na = ("T", a.index) if a.face == "N" else ("M", a.index)
        nb = ("T", b.index) if b.face == "N" else ("M", b.index)
        add(na, (nb, dec, "x"))
        add(nb, (na, dec, "x"))
    for a, b, dec in bottom.arcs:
        na = ("M", a.index) if a.face == "N" else ("B", a.index)
        nb = ("M", b.index) if b.face == "N" else ("B", b.index)
        add(na, (nb, dec, "y"))
        add(nb, (na, dec, "y"))
    for i in range(1, top.n_bottom + 1):
        halves = adj.get(("M", i), [])
        if len(halves) != 2:
            raise ValueError(f"glued node {i} lies on {len(halves)} arcs; tangles must be fully matched")

    out = DecoratedTangle(top.n_top, bottom.n_bottom)  # frame only, for positions
    to_ref = lambda n: NodeRef("N" if n[0] == "T" else "S", n[1])
    visited: set[tuple] = set()
    arcs = set()
    for start in [("T", i) for i in range(1, top.n_top + 1)] + [
        ("B", i) for i in range(1, bottom.n_bottom + 1)
    ]:
        if start in visited:
            continue
        if start not in adj:
            raise ValueError(f"outer node {to_ref(start)} is not on any arc")
        visited.add(start)
        node, dec_total, src = start, 0, None
        while True:
            nxt = next(h for h in adj[node] if h[2] != src) if node[0] == "M" else adj[node][0]
            node, src = nxt[0], nxt[2]
            dec_total += nxt[1]
            visited.add(node)
            if node[0] != "M":
                break
        a, b = to_ref(start), to_ref(node)
        if position(out, a) > position(out, b):
            a, b = b, a
        arcs.add((a, b, dec_total))
    loops = list(top.loops) + list(bottom.loops)
    for i in range(1, top.n_bottom + 1):
        start = ("M", i)
        if start in visited:
            continue
        visited.add(start)
        node, dec_total, src = start, 0, "y"
        while True:
            nxt = next(h for h in adj[node] if h[2] != src)
            node, src = nxt[0], nxt[2]
            dec_total += nxt[1]
            if node == start:
                break
            visited.add(node)
        loops.append(dec_total)
    result = DecoratedTangle(top.n_top, bottom.n_bottom, frozenset(arcs), tuple(loops))
    for arc in sorted(arc for arc in result.arcs if arc[2]):  # sorted: not in hash-seeded set order
        if not west_exposed(result, arc):
            raise ValueError(f"gluing produced a trapped decoration on {arc[0]}-{arc[1]}")
    return result


def glue_outcome(glue, top, bottom):
    """A gluing's result, or the text of the ValueError it raised."""
    try:
        return glue(top, bottom)
    except ValueError as exc:
        return str(exc)


def damaged(rng, t: DecoratedTangle) -> DecoratedTangle:
    """t with one arc dropped or one arc decorated whatever its nesting, or t itself."""
    arcs = sorted(t.arcs, key=str)
    if not arcs or rng.random() < 0.6:
        return t
    a, b, dec = arc = rng.choice(arcs)
    rest = t.arcs - {arc}
    return DecoratedTangle(t.n_top, t.n_bottom, rest if rng.random() < 0.5 else rest | {(a, b, dec + 1)}, t.loops)


def test_glue_matches_the_reference_walk():
    rng = random.Random(20261018)
    widths = range(0, 7)
    seen = {"loop": 0, "stacked": 0, "fully matched": 0, "not on any arc": 0, "trapped": 0}
    for _ in range(400):
        nt, mid = rng.choice(widths), rng.choice(widths)
        nb = rng.choice([k for k in widths if (k + mid) % 2 == 0])
        if (nt + mid) % 2:
            nt += 1
        top = damaged(rng, random_tangle(rng, nt, mid, max_dec=3, n_loops=rng.randint(0, 2)))
        bottom = damaged(rng, random_tangle(rng, mid, nb, max_dec=3, n_loops=rng.randint(0, 1)))
        expected = glue_outcome(concat_reference, top, bottom)
        assert glue_outcome(DecoratedTangle.concat, top, bottom) == expected
        if isinstance(expected, str):
            seen[next(key for key in seen if key in expected)] += 1
        else:
            seen["loop"] += len(expected.loops) > len(top.loops) + len(bottom.loops)
            seen["stacked"] += any(dec >= 2 for *_, dec in expected.arcs)
    # the sample covers new loops, stacked decorations and each gluing error
    assert min(seen.values()) >= 10, seen


def glue_sample():
    """The (top, bottom) pairs of test_glue_matches_the_reference_walk, drawn the same way."""
    rng = random.Random(20261018)
    widths = range(0, 7)
    for _ in range(400):
        nt, mid = rng.choice(widths), rng.choice(widths)
        nb = rng.choice([k for k in widths if (k + mid) % 2 == 0])
        if (nt + mid) % 2:
            nt += 1
        top = damaged(rng, random_tangle(rng, nt, mid, max_dec=3, n_loops=rng.randint(0, 2)))
        bottom = damaged(rng, random_tangle(rng, mid, nb, max_dec=3, n_loops=rng.randint(0, 1)))
        yield top, bottom


def test_glued_tangles_equal_the_constructor_built_ones():
    # concat builds its result from the boundary form; the public constructor must agree on it
    glued = 0
    for top, bottom in glue_sample():
        r = glue_outcome(DecoratedTangle.concat, top, bottom)
        if isinstance(r, str):
            continue
        rebuilt = DecoratedTangle(r.n_top, r.n_bottom, r.arcs, r.loops)
        assert r == rebuilt and hash(r) == hash(rebuilt)
        assert (str(r), r.to_json()) == (str(rebuilt), rebuilt.to_json())
        assert (r.partner, r.dec) == (rebuilt.partner, rebuilt.dec)  # the handed-over form is the one arcs give
        glued += 1
    assert glued >= 200


@pytest.mark.parametrize(
    "widths, arcs, loops, message",
    [
        ((1, 1), {(N(1), N(1), 0)}, (), "^arc joins node N1 to itself$"),
        ((2, 1), {(N(1), N(2), 0), (N(2), S(1), 0)}, (), "^nodes on more than one arc: N2$"),
        ((1, 1), {(N(1), S(1), -1)}, (), "^bad decoration count -1 on arc N1-S1$"),
        ((1, 1), {(N(1), S(1), True)}, (), "^bad decoration count True on arc N1-S1$"),
        ((1, 1), {(N(1), S(1), 0)}, (-2,), r"^bad loop decoration counts \(-2,\)$"),
        ((1, 1), {(N(1), S(1), 0)}, (True,), r"^bad loop decoration counts \(True,\)$"),
    ],
    ids=["self-joined", "two-arcs", "negative-dec", "bool-dec", "negative-loop", "bool-loop"],
)
def test_the_boundary_check_rejects_what_the_constructor_rejects(widths, arcs, loops, message):
    with pytest.raises(ValueError, match=message):
        DecoratedTangle(*widths, frozenset(arcs), loops)


def test_the_constructor_reads_iterator_loops_once():
    # the loop check must not use up an iterator before the counts are stored
    for loops in (iter([2, 1]), (r for r in (1, 2))):
        t = DecoratedTangle(0, 0, loops=loops)
        assert t.loops == (1, 2) and t == DecoratedTangle(0, 0, loops=[1, 2])
    with pytest.raises(ValueError, match="^bad loop decoration counts"):
        DecoratedTangle(0, 0, loops=iter([1, -1]))


def test_a_bad_loop_count_names_what_an_iterator_held():
    # a tuple or list is quoted as the caller wrote it; any other iterable by the counts read from it
    for loops in (iter([1, -1]), (r for r in (1, -1))):
        with pytest.raises(ValueError, match=r"^bad loop decoration counts \(1, -1\)$"):
            DecoratedTangle(0, 0, loops=loops)
    with pytest.raises(ValueError, match=r"^bad loop decoration counts \[1, -1\]$"):
        DecoratedTangle(0, 0, loops=[1, -1])


def assert_alike(t: DecoratedTangle):
    """t rebuilt by the public constructor from its arcs and stored by _trusted from its arrays
    is the same tangle, with the same hash, str and JSON."""
    public = DecoratedTangle(t.n_top, t.n_bottom, t.arcs, t.loops)
    arrays = DecoratedTangle._trusted(t.n_top, t.n_bottom, t.partner, t.dec, t.loops)
    assert public == arrays == t and hash(public) == hash(arrays) == hash(t)
    assert str(public) == str(arrays) and json.dumps(public.to_json()) == json.dumps(arrays.to_json())
    assert public.arcs == arrays.arcs == t.arcs
    # str and to_json list the arcs by the positions of their ends
    assert [(a["from"], a["to"], a["dec"]) for a in t.to_json()["arcs"]] == [
        (str(a), str(b), dec) for a, b, dec in sorted_arcs(t)
    ]


def test_both_constructors_build_the_same_tangle():
    rng = random.Random(20261019)
    for _ in range(300):
        top = rng.randint(0, 6)
        assert_alike(random_tangle(rng, top, rng.choice(range(top % 2, 7, 2)), max_dec=3, n_loops=rng.randint(0, 2)))
    for top, bottom in glue_sample():
        for t in (top, bottom):
            assert_alike(t)
    partial = DecoratedTangle(3, 2, frozenset({(S(1), N(2), 2)}), loops=(3, 0))
    assert_alike(partial)
    assert partial.partner == (-1, 4, -1, -1, 1) and partial.dec == (0, 2, 0, 0, 2) and partial.loops == (0, 3)
    assert partial != DecoratedTangle(3, 2, frozenset({(S(1), N(2), 2)}), loops=(3,))
    assert DecoratedTangle(1, 1) != DecoratedTangle(2, 0) and DecoratedTangle(0, 2) != DecoratedTangle(2, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        partial.loops = ()


@pytest.mark.parametrize(
    "partner, dec",
    [((1, 0), (1, 0)), ((1, 0, -1), (0, 0, 0)), ((3, 0), (0, 0)), ((-1, -1), (1, 0))],
    ids=["ends-disagree", "too-long", "out-of-frame", "decorated-uncovered"],
)
def test_the_boundary_check_rejects_inconsistent_arrays(partner, dec):
    # arrays no checked tangle has: stored unchecked, each must fail the trusted-store oracle
    with pytest.raises(AssertionError):
        assert_stored_tangles_pass_the_check([DecoratedTangle._trusted(1, 1, partner, dec)])


def test_glue_decorated_loop_crossing_the_glued_layer_four_times():
    # S1-S2 and S3-S4 above, N1-N4 around N2-N3 below: one loop through glued nodes 1-4,
    # beside the strand N1-S5, N5-S1
    top = DecoratedTangle(1, 5, frozenset({(N(1), S(5), 0), (S(1), S(2), 2), (S(3), S(4), 1)}), loops=(1,))
    bottom = DecoratedTangle(5, 1, frozenset({(N(5), S(1), 1), (N(1), N(4), 3), (N(2), N(3), 0)}))
    glued = top.concat(bottom)
    assert glued == DecoratedTangle(1, 1, frozenset({(N(1), S(1), 1)}), loops=(1, 6))
    assert glued == concat_reference(top, bottom)



@pytest.mark.parametrize(
    "top, bottom, expected",
    [
        (  # N1 crosses the glued layer five times, through glued nodes 5, 4, 3, 2, 1
            DecoratedTangle(1, 5, frozenset({(N(1), S(5), 1), (S(4), S(3), 2), (S(2), S(1), 0)})),
            DecoratedTangle(5, 1, frozenset({(N(5), N(4), 1), (N(3), N(2), 0), (N(1), S(1), 1)})),
            DecoratedTangle(1, 1, frozenset({(N(1), S(1), 5)})),
        ),
        (  # a strand walked from the south edge crosses four times and ends there too
            DecoratedTangle(0, 4, frozenset({(S(1), S(2), 1), (S(3), S(4), 0)})),
            DecoratedTangle(4, 2, frozenset({(N(1), S(1), 0), (N(2), N(3), 1), (N(4), S(2), 1)})),
            DecoratedTangle(0, 2, frozenset({(S(2), S(1), 3)})),
        ),
        (  # a loop through glued nodes 1-6 carrying 5 decorations, beside the strand N1-S7-N7-S1
            DecoratedTangle(1, 7, frozenset({(N(1), S(7), 0), (S(1), S(2), 1), (S(3), S(4), 0), (S(5), S(6), 2)})),
            DecoratedTangle(7, 1, frozenset({(N(7), S(1), 0), (N(1), N(6), 1), (N(2), N(3), 1), (N(4), N(5), 0)})),
            DecoratedTangle(1, 1, frozenset({(N(1), S(1), 0)}), loops=(5,)),
        ),
        (  # glued node 2 and outer node N2 are both uncovered: the glued node is named
            DecoratedTangle(2, 2, frozenset({(N(1), S(1), 0)})),
            DecoratedTangle.identity(2),
            "glued node 2 lies on 1 arcs; tangles must be fully matched",
        ),
        (  # glued node 1 and outer node S1 are both uncovered, below
            DecoratedTangle.identity(3),
            DecoratedTangle(3, 3, frozenset({(N(2), N(3), 0), (S(2), S(3), 0)})),
            "glued node 1 lies on 1 arcs; tangles must be fully matched",
        ),
    ],
    ids=["strand-five-crossings", "strand-from-south", "loop-through-six", "glued-and-outer-above", "glued-and-outer-below"],
)
def test_glue_long_paths_and_uncovered_nodes_match_the_reference(top, bottom, expected):
    assert glue_outcome(DecoratedTangle.concat, top, bottom) == glue_outcome(concat_reference, top, bottom) == expected

def test_glue_width_mismatch():
    with pytest.raises(ValueError, match="cannot glue"):
        DecoratedTangle.identity(2).concat(DecoratedTangle.identity(3))


def test_glue_requires_perfect_matching():
    t = DecoratedTangle(1, 1, frozenset({(N(1), S(1), 0)}))
    bad = DecoratedTangle(1, 1)  # no arcs at all
    with pytest.raises(ValueError, match="must be fully matched|not on any arc"):
        t.concat(bad)


def test_glue_rejects_trapped_decoration():
    # N2-S2 sits inside N1-S1, so its decoration cannot reach the west wall
    trapped = DecoratedTangle(2, 2, frozenset({(N(1), S(1), 0), (N(2), S(2), 1)}))
    for top, bottom in ((trapped, DecoratedTangle.identity(2)), (DecoratedTangle.identity(2), trapped)):
        with pytest.raises(ValueError, match="trapped decoration on N2-S2"):
            top.concat(bottom)


def test_glue_square_of_decorated_cap():
    # caps {1,2} decorated on both faces; squaring closes a doubly decorated loop
    u1 = U(1, 3)
    sq = u1.concat(u1)
    assert sq.loops == (2,)
    assert sq.arcs == u1.arcs


def test_glue_frozen_product_of_first_two_caps():
    # U1 * U2: north cap {1,2} decorated, south cap {2,3} plain, decorated prop N3-S1
    prod = U(1, 3).concat(U(2, 3))
    assert prod.loops == ()
    assert prod.arcs == frozenset({(N(1), N(2), 1), (S(3), S(2), 0), (N(3), S(1), 1)})
    assert validate(prod) == []


def test_flip_is_an_anti_automorphism():
    u1, u2 = U(1, 3), U(2, 3)
    assert flip(u1) == u1
    assert flip(u1.concat(u2)) == u2.concat(u1)
    rng = random.Random(11)
    for _ in range(50):
        x = random_tangle(rng, 4, 2)
        y = random_tangle(rng, 2, 4)
        assert flip(x.concat(y)) == flip(y).concat(flip(x))


def test_glue_is_associative():
    rng = random.Random(7)
    for _ in range(60):
        a = random_tangle(rng, 3, 3, n_loops=rng.randint(0, 1))
        b = random_tangle(rng, 3, 5)
        c = random_tangle(rng, 5, 3)
        assert a.concat(b).concat(c) == a.concat(b.concat(c))


def test_glue_preserves_validity():
    rng = random.Random(13)
    for _ in range(200):
        a = random_tangle(rng, 4, 2)
        b = random_tangle(rng, 2, 4)
        assert validate(a) == [] and validate(b) == []
        assert validate(a.concat(b)) == []


def test_glue_decoration_counts_add():
    # two decorated verticals glued: counts add along the strand
    top = DecoratedTangle(1, 1, frozenset({(N(1), S(1), 2)}))
    bot = DecoratedTangle(1, 1, frozenset({(N(1), S(1), 3)}))
    assert top.concat(bot).arcs == frozenset({(N(1), S(1), 5)})


def test_loops_pass_through_gluing():
    t = DecoratedTangle(1, 1, frozenset({(N(1), S(1), 0)}), loops=(4,))
    out = t.concat(t)
    assert out.loops == (4, 4)


def test_random_matching_parity():
    rng = random.Random(3)
    with pytest.raises(ValueError):
        random_matching(rng, [1, 2, 3])
    pairs = random_matching(rng, list(range(8)))
    assert len(pairs) == 4
    assert sorted(p for pair in pairs for p in pair) == list(range(8))


def test_random_tangle_always_valid():
    rng = random.Random(20260825)
    for _ in range(200):
        nt = rng.randint(0, 5)
        nb = rng.choice([k for k in range(0, 6) if (k + nt) % 2 == 0])
        t = random_tangle(rng, nt, nb, n_loops=rng.randint(0, 2))
        assert validate(t) == []
    with pytest.raises(ValueError):
        random_tangle(rng, 2, 3)


def test_random_tangle_rejects_a_negative_decoration_bound_or_loop_count():
    # a negative loop count returned a loop-free tangle, and a negative max_dec failed inside random
    for name, args in (("max_dec", (-1, 0)), ("n_loops", (2, -1)), ("max_dec", (-2, -1))):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -[12]$"):
            random_tangle(random.Random(0), 2, 2, *args)
    assert random_tangle(random.Random(0), 2, 2, 0, 2).loops == (0, 0)


def test_seeded_random_tangles_do_not_depend_on_string_hashing():
    script = (
        "import random\n"
        "from tlh.tangle import random_tangle\n"
        "rng = random.Random(20260825)\n"
        "for _ in range(200):\n"
        "    top = rng.randint(2, 5)\n"
        "    print(random_tangle(rng, top, top, max_dec=3, n_loops=rng.randint(0, 2)))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outputs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for hash_seed in ("1", "2")
    ]
    assert outputs[0].count("\n") == 200 and outputs[0] == outputs[1]


def test_str_rendering():
    u1 = U(1, 3)
    # arcs print in clockwise boundary order (south face runs east to west)
    assert str(u1) == "[3|3] N1-N2* N3-S3 S2-S1*"
    assert str(DecoratedTangle(0, 0, loops=(0, 2))) == "[0|0] (loop) (loop**)"


def test_json_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        t = random_tangle(rng, 3, 3, n_loops=1)
        blob = t.to_json()
        assert DecoratedTangle.from_json(blob) == t
    blob = U(1, 2).to_json()
    assert blob == {
        "n_top": 2,
        "n_bottom": 2,
        "arcs": [
            {"from": "N1", "to": "N2", "dec": 1},
            {"from": "S2", "to": "S1", "dec": 1},
        ],
        "loops": [],
    }
    with pytest.raises(ValueError):
        DecoratedTangle.from_json({"n_top": 1})
    with pytest.raises(ValueError):
        DecoratedTangle.from_json([1, 2])
    for field, value in (("n_top", True), ("loops", [True])):
        with pytest.raises(ValueError, match="not booleans"):
            DecoratedTangle.from_json(blob | {field: value})
    arcs = [dict(blob["arcs"][0], dec=1.0), blob["arcs"][1]]
    for field, value in (("n_top", 2.0), ("n_bottom", "2"), ("loops", [0.5]), ("arcs", arcs)):
        with pytest.raises(ValueError, match="must be integers"):
            DecoratedTangle.from_json(blob | {field: value})


# Property tests over random tangles: up to three stacked decorations per arc,
# up to two carried loops, and widths of one parity so that every gluing fits.

properties = settings(max_examples=150, deadline=None, database=None)


@st.composite
def tangle_chain(draw, length):
    """`length` random tangles, each one's bottom width the next one's top width."""
    parity = draw(st.integers(0, 1))
    widths = [2 * draw(st.integers(0, 2)) + parity for _ in range(length + 1)]
    rng = draw(st.randoms(use_true_random=False))
    return [
        random_tangle(rng, top, bottom, max_dec=3, n_loops=rng.randint(0, 2))
        for top, bottom in zip(widths, widths[1:])
    ]


@properties
@given(tangle_chain(3))
def test_glue_is_associative_property(chain):
    a, b, c = chain
    assert a.concat(b).concat(c) == a.concat(b.concat(c))


@properties
@given(tangle_chain(1))
def test_json_round_trip_property(chain):
    (t,) = chain
    assert DecoratedTangle.from_json(json.loads(json.dumps(t.to_json()))) == t


def counter_tangle_check(n_top, n_bottom, arcs, loops):
    """The constructor check the seen-set pass replaced, kept as its oracle.

    Returns the normalized (arcs, loops), or raises the ValueError it raised."""
    if n_top < 0 or n_bottom < 0:
        raise ValueError(f"negative boundary width: {n_top}, {n_bottom}")
    frame = DecoratedTangle(n_top, n_bottom)  # for position() only
    norm = set()
    used = Counter()
    for arc in arcs:
        a, b, dec = arc
        for ref in (a, b):
            if not isinstance(ref, NodeRef):
                raise ValueError(f"arc endpoint {ref!r} is not a NodeRef")
            width = n_top if ref.face == "N" else n_bottom if ref.face == "S" else None
            if width is None or not 1 <= ref.index <= width:
                raise ValueError(f"node {ref} out of range for widths ({n_top}, {n_bottom})")
        if a == b:
            raise ValueError(f"arc joins node {a} to itself")
        if not isinstance(dec, int) or dec < 0:
            raise ValueError(f"bad decoration count {dec!r} on arc {a}-{b}")
        used[a] += 1
        used[b] += 1
        if position(frame, a) > position(frame, b):
            a, b = b, a
        norm.add((a, b, dec))
    dup = [str(n) for n, c in sorted(used.items()) if c > 1]
    if dup:
        raise ValueError(f"nodes on more than one arc: {', '.join(dup)}")
    if any(not isinstance(r, int) or r < 0 for r in loops):
        raise ValueError(f"bad loop decoration counts {loops!r}")
    return frozenset(norm), tuple(sorted(loops))


def check_outcome(check, *args):
    try:
        return check(*args)
    except ValueError as exc:
        return str(exc)


def constructor_check(*args):
    t = DecoratedTangle(*args)
    return t.arcs, t.loops


@st.composite
def raw_tangles(draw):
    """Constructor arguments on widths up to 4: mostly nodes in range, so that
    nodes on two arcs are common, and now and then a stray node or count."""
    width = st.sampled_from([0, 1, 2, 3, 4] * 4 + [-1])
    n_top, n_bottom = draw(width), draw(width)
    refs = [NodeRef("N", i) for i in range(1, n_top + 1)] + [NodeRef("S", i) for i in range(1, n_bottom + 1)]
    strays = [NodeRef("X", 1), NodeRef("N", 0), NodeRef("S", n_bottom + 1), NodeRef("N", n_top + 1)]
    node = st.sampled_from(refs * 8 + strays)
    count = st.sampled_from([0, 0, 1, 1, 2, 3] * 4 + [-1])
    arcs = frozenset(draw(st.lists(st.tuples(node, node, count), max_size=5)))
    loops = tuple(draw(st.lists(count, max_size=2)))
    return n_top, n_bottom, arcs, loops


@settings(max_examples=400, deadline=None, database=None)
@given(raw_tangles())
def test_tangle_check_matches_the_counter_oracle(raw):
    # the same frozenset object feeds both, so both meet its arcs in the same order
    expected = check_outcome(counter_tangle_check, *raw)
    assert check_outcome(constructor_check, *raw) == expected


@st.composite
def crossing_tangles(draw):
    """Tangles on widths up to 4 whose arcs may cross and may leave nodes uncovered."""
    n_top, n_bottom = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    refs = [NodeRef("N", i) for i in range(1, n_top + 1)] + [NodeRef("S", i) for i in range(1, n_bottom + 1)]
    refs = draw(st.permutations(refs))
    pairs = max(len(refs) // 2 - draw(st.integers(0, 1)), 0)
    decs = draw(st.lists(st.integers(0, 2), min_size=pairs, max_size=pairs))
    return DecoratedTangle(n_top, n_bottom, frozenset((refs[2 * k], refs[2 * k + 1], decs[k]) for k in range(pairs)))


@settings(max_examples=300, deadline=None, database=None)
@given(crossing_tangles())
def test_the_trapped_scan_gives_the_west_exposed_verdict(t):
    expected = {arc[0] for arc in t.arcs if arc[2] and not west_exposed(t, arc)}
    assert {_refs(t.n_top, t.n_bottom)[i] for i in _trapped(t.partner, t.dec)} == expected


@settings(max_examples=300, deadline=None, database=None)
@given(crossing_tangles())
def test_both_constructors_build_the_same_crossing_tangle(t):
    assert_alike(t)


@contextmanager
def trusted_tangles():
    """Record every tangle stored without the array check while the block runs."""
    stored, original = [], DecoratedTangle._trusted.__func__

    def recorded(cls, *args):
        t = original(cls, *args)
        stored.append(t)
        return t

    with mock.patch.object(DecoratedTangle, "_trusted", classmethod(recorded)):
        yield stored


def assert_stored_tangles_pass_the_check(stored):
    """Each tangle equals the one the public constructor builds from the arcs its arrays name."""
    for t in stored:
        size, refs = t.n_top + t.n_bottom, _refs(t.n_top, t.n_bottom)
        assert len(t.partner) == len(t.dec) == size and all(-1 <= j < size for j in t.partner)
        arcs = [(refs[i], refs[j], t.dec[i]) for i, j in enumerate(t.partner) if i < j]
        checked = DecoratedTangle(t.n_top, t.n_bottom, arcs, t.loops)
        assert dataclasses.astuple(t) == dataclasses.astuple(checked) and hash(t) == hash(checked)
        assert all(type(x) is int for x in (*t.partner, *t.dec, *t.loops))  # no bools or floats either


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_products_store_only_tangles_that_pass_the_array_check(m):
    # gluing walks, decoration splits and diagram tangles skip the check; each result must pass it
    rng = random.Random(20261019 + m)
    basis = enumerate_diagrams(m)
    with trusted_tangles() as stored:
        for _ in range(60):
            x, y = (rng.choice(basis) for _ in range(2))
            fresh = [Diagram(d.north, d.south, d.bullet) for d in (x, y)]  # tangles not built yet
            AlgebraElement.from_diagram(fresh[0]) * AlgebraElement.from_diagram(fresh[1])
    assert len(stored) >= 180  # two diagram tangles and a gluing per product, and the splits
    assert_stored_tangles_pass_the_check(stored)


@settings(max_examples=300, deadline=None, database=None)
@given(crossing_tangles(), st.integers(0, 3))
def test_crossing_gluings_and_splits_store_checked_tangles(t, extra):
    # decorations up to 2 + extra, so that normal_form splits; gluing onto the reflection may fail
    t = DecoratedTangle(t.n_top, t.n_bottom, frozenset((a, b, dec + extra * (dec > 0)) for a, b, dec in t.arcs))
    with trusted_tangles() as stored:
        glue_outcome(DecoratedTangle.concat, t, flip(t))
        normal_form(t)
    assert_stored_tangles_pass_the_check(stored)
