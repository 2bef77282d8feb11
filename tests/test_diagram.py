"""Basis-diagram admissibility, dyadic form, reading tangles, and enumeration."""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlh.diagram import (
    Diagram,
    HalfDiagram,
    enumerate_diagrams,
    enumerate_generalized_half,
    enumerate_half,
    generator_U,
)
from tlh.tangle import DecoratedTangle, NodeRef, random_tangle
from test_tangle import flip, validate

N = lambda i: NodeRef("N", i)
S = lambda i: NodeRef("S", i)


def all_pairings(items):
    """Every perfect matching of a sequence (not just planar ones)."""
    if not items:
        yield ()
        return
    a, rest = items[0], items[1:]
    for i, b in enumerate(rest):
        for ps in all_pairings(rest[:i] + rest[i + 1 :]):
            yield ((a, b),) + ps


def brute_half_diagrams(m: int, k: int) -> set:
    """Independent oracle: try every cap set and decoration pattern."""
    found = set()
    for caps in itertools.combinations(range(1, m + 1), 2 * k):
        for pairing in all_pairings(caps):
            for decs in itertools.product((0, 1), repeat=k):
                try:
                    found.add(HalfDiagram(m, tuple((a, b, d) for (a, b), d in zip(pairing, decs))))
                except ValueError:
                    pass
    return found


def all_square_tangles(m: int):
    """Every perfect matching of the 2m boundary nodes, with every 0/1/2 decoration pattern."""
    refs = tuple([N(i) for i in range(1, m + 1)] + [S(i) for i in range(1, m + 1)])
    for pairing in all_pairings(refs):
        for decs in itertools.product((0, 1, 2), repeat=m):
            yield DecoratedTangle(m, m, frozenset((a, b, d) for (a, b), d in zip(pairing, decs)))


def oracle_accepts(t: DecoratedTangle) -> bool:
    """Independent oracle: the general geometry check plus the basis rules, written out."""
    if validate(t) or any(dec > 1 for _, _, dec in t.arcs):
        return False
    caps = [arc for arc in t.arcs if arc[0].face == arc[1].face]
    if not caps:
        return not any(dec for _, _, dec in t.arcs)
    for face in "NS":
        face_caps = {
            (min(a.index, b.index), max(a.index, b.index), dec) for a, b, dec in caps if a.face == face
        }
        if (1, 2, 1) not in face_caps and not any(
            dec == 0 and b == a + 1 and a > 1 for a, b, dec in face_caps
        ):
            return False
    return True


def brute_diagrams(m: int) -> set:
    """Every tangle the oracle accepts, as a diagram."""
    return {Diagram.from_tangle(t) for t in all_square_tangles(m) if oracle_accepts(t)}


def rejection(t: DecoratedTangle) -> str:
    with pytest.raises(ValueError) as info:
        Diagram.from_tangle(t)
    return str(info.value)


def test_half_constructor_rejects():
    with pytest.raises(ValueError, match="cross"):
        HalfDiagram(4, ((1, 3, 0), (2, 4, 0)))
    with pytest.raises(ValueError, match="unpaired node"):
        HalfDiagram(3, ((1, 3, 0),))
    with pytest.raises(ValueError, match="not west-exposed"):
        HalfDiagram(4, ((1, 4, 0), (2, 3, 1)))
    with pytest.raises(ValueError, match="not west-exposed"):
        HalfDiagram(4, ((2, 3, 1),))  # free node 1 blocks the west wall
    with pytest.raises(ValueError, match="decoration"):
        HalfDiagram(2, ((1, 2, 2),))
    with pytest.raises(ValueError, match="more than one cap"):
        HalfDiagram(4, ((1, 2, 0), (2, 3, 0)))
    with pytest.raises(ValueError, match="endpoints"):
        HalfDiagram(2, ((2, 1, 0),))
    with pytest.raises(ValueError, match="endpoints"):
        HalfDiagram(3, ((True, 2, 0),))
    with pytest.raises(ValueError, match="decoration"):
        HalfDiagram(3, ((1, 2, True),))
    for m in (True, 3.0, -1):
        with pytest.raises(ValueError, match="strand count"):
            HalfDiagram(m)


def test_half_constructor_rejects_a_non_iterable_pairs_argument():
    with pytest.raises(ValueError, match="^pairs must be iterable, got 5$"):
        HalfDiagram(3, 5)


def test_half_constructor_checks_every_cap_before_sorting():
    # sorting compares the caps, so a malformed one must be caught first
    with pytest.raises(ValueError, match=r"bad cap endpoints \(1, x\)"):
        HalfDiagram(3, ((1, "x", 0), (1, 2, 0)))
    with pytest.raises(ValueError, match="cap must be"):
        HalfDiagram(3, ((1, 2, 0), 5))


def test_half_free_points_and_exposure():
    h = HalfDiagram(7, ((2, 3, 0), (4, 7, 0), (5, 6, 0)))
    assert h.free_points == (1,)
    assert h.k == 3
    # free node 1 hides everything and nesting hides (5,6), so no cap of h may be decorated
    for i, (a, b, _) in enumerate(h.pairs):
        with pytest.raises(ValueError, match=rf"^decorated cap \({a},{b}\) is not west-exposed$"):
            HalfDiagram(7, h.pairs[:i] + ((a, b, 1),) + h.pairs[i + 1 :])
    # an outer cap at the west wall, and every cap of a flat face, may be
    assert HalfDiagram(6, ((1, 6, 1), (2, 3, 0), (4, 5, 0))).free_points == ()
    assert HalfDiagram(6, ((1, 2, 1), (3, 4, 1), (5, 6, 1))).free_points == ()


def test_admissibility_of_faces():
    assert HalfDiagram(4).admissible()
    assert HalfDiagram(3, ((1, 2, 1),)).admissible()
    assert HalfDiagram(3, ((2, 3, 0),)).admissible()
    assert not HalfDiagram(3, ((1, 2, 0),)).admissible()
    assert not HalfDiagram(4, ((1, 2, 0), (3, 4, 1))).admissible()
    assert HalfDiagram(4, ((1, 2, 0), (3, 4, 0))).admissible()
    assert HalfDiagram(4, ((1, 4, 1), (2, 3, 0))).admissible()


def test_figure_four_is_the_unique_inadmissible_face():
    for m, k in [(3, 1), (4, 1), (4, 2), (5, 2), (6, 3), (7, 2)]:
        gen = set(enumerate_generalized_half(m, k))
        adm = set(enumerate_half(m, k))
        assert gen - adm == {HalfDiagram.figure_four(m, k)}
    with pytest.raises(ValueError):
        HalfDiagram.figure_four(4, 3)


def test_half_enumeration_against_brute_force():
    for m in range(1, 7):
        for k in range(0, m // 2 + 1):
            brute = brute_half_diagrams(m, k)
            assert set(enumerate_generalized_half(m, k)) == brute
            assert len(brute) == comb(m, k)
            assert set(enumerate_half(m, k)) == {h for h in brute if h.admissible()}


def test_half_enumeration_frozen_small():
    assert [h.pairs for h in enumerate_half(3, 1)] == [((1, 2, 1),), ((2, 3, 0),)]
    assert len(enumerate_half(4, 2)) == 5
    assert len(enumerate_half(9, 4)) == comb(9, 4) - 1


def test_generator_shapes():
    u1 = generator_U(1, 3)
    assert u1.tangle.arcs == frozenset(
        {(N(1), N(2), 1), (S(2), S(1), 1), (N(3), S(3), 0)}
    )
    u2 = generator_U(2, 3)
    assert all(dec == 0 for _, _, dec in u2.tangle.arcs)
    assert u2.k == 1 and u2.prop_count == 1
    with pytest.raises(ValueError):
        generator_U(3, 3)
    with pytest.raises(ValueError):
        generator_U(0, 3)


def test_from_tangle_reasons():
    assert Diagram.from_tangle(DecoratedTangle.identity(4)) == enumerate_diagrams(4)[0]
    bad = DecoratedTangle(2, 4, frozenset({(N(1), N(2), 0), (S(1), S(2), 0), (S(3), S(4), 0)}))
    assert rejection(bad) == "not a basis diagram: not square: 2 north, 4 south nodes"
    looped = DecoratedTangle(1, 1, frozenset({(N(1), S(1), 0)}), loops=(0,))
    assert rejection(looped) == "not a basis diagram: contains closed loops"
    dec_id = DecoratedTangle(2, 2, frozenset({(N(1), S(1), 1), (N(2), S(2), 0)}))
    assert rejection(dec_id) == "not a basis diagram: a bullet needs at least one cap and a propagating edge"
    heavy = DecoratedTangle(2, 2, frozenset({(N(1), N(2), 2), (S(1), S(2), 1)}))
    assert rejection(heavy) == "not a basis diagram: an edge carries more than one decoration"
    fig4 = DecoratedTangle(
        4, 4,
        frozenset({(N(1), N(2), 0), (N(3), N(4), 1), (S(1), S(2), 1), (S(3), S(4), 0)}),
    )
    assert rejection(fig4).startswith("not a basis diagram: face N")


def test_from_tangle_rejects_bad_propagating_edges():
    crossed = DecoratedTangle(2, 2, frozenset({(N(1), S(2), 0), (N(2), S(1), 0)}))
    assert "do not join the free nodes in order" in rejection(crossed)
    missing = DecoratedTangle(2, 2, frozenset({(N(1), S(1), 0)}))
    assert "do not join the free nodes in order" in rejection(missing)
    caps = {(N(3), N(4), 0), (S(3), S(4), 0)}
    east = DecoratedTangle(4, 4, frozenset(caps | {(N(1), S(1), 0), (N(2), S(2), 1)}))
    assert "east of the westmost one is decorated" in rejection(east)
    west = DecoratedTangle(4, 4, frozenset(caps | {(N(1), S(1), 1), (N(2), S(2), 0)}))
    assert Diagram.from_tangle(west).bullet
    hidden = DecoratedTangle(3, 3, frozenset({(N(2), N(3), 1), (S(2), S(3), 0), (N(1), S(1), 0)}))
    assert "not west-exposed" in rejection(hidden)


def test_from_tangle_rejects_uncovered_nodes_before_building_halves(monkeypatch):
    # a face is built either by the checking constructor or, on the array read-back, by the checked one
    u1, built = generator_U(1, 3).tangle, []
    post_init, from_checked = HalfDiagram.__post_init__, HalfDiagram._from_checked.__func__

    def counted(half):
        built.append("checking")
        post_init(half)

    def counted_checked(cls, *args):
        built.append("checked")
        return from_checked(cls, *args)

    monkeypatch.setattr(HalfDiagram, "__post_init__", counted)
    monkeypatch.setattr(HalfDiagram, "_from_checked", classmethod(counted_checked))
    for t in (DecoratedTangle(1000, 1000), DecoratedTangle(3, 3, frozenset({(N(1), S(1), 0), (N(2), N(3), 0)}))):
        assert rejection(t) == "not a basis diagram: propagating edges do not join the free nodes in order"
    assert built == []
    Diagram.from_tangle(u1)
    assert built == ["checked", "checked"]


def test_from_tangle_matches_the_oracle():
    for m in range(1, 5):
        accepted = set()
        for t in all_square_tangles(m):
            try:
                d = Diagram.from_tangle(t)
            except ValueError:
                assert not oracle_accepts(t), t
                continue
            assert oracle_accepts(t), t
            assert d.tangle == t
            assert Diagram(d.north, d.south, d.bullet).tangle == t
            accepted.add(d)
        assert accepted == set(enumerate_diagrams(m))


def read_back(t: DecoratedTangle, read=Diagram.from_tangle):
    """The diagram read from t with its faces' fields, or the text of the ValueError raised."""
    try:
        d = read(t)
    except ValueError as exc:
        return str(exc)
    return d, (d.north.pairs, d.north.free_points), (d.south.pairs, d.south.free_points), d.bullet


def from_tangle_by_faces(t: DecoratedTangle) -> Diagram:
    """Diagram.from_tangle as it was before the array pass: every tangle goes through the
    face constructors, whose checks are the reference for the array read-back."""
    try:
        if not t.is_square:
            raise ValueError(f"not square: {t.n_top} north, {t.n_bottom} south nodes")
        if t.loops:
            raise ValueError("contains closed loops")
        partner, dec = t.partner, t.dec
        if max(dec, default=0) > 1:
            raise ValueError("an edge carries more than one decoration")
        if -1 in partner:
            raise ValueError("propagating edges do not join the free nodes in order")
        m, size = t.n_top, 2 * t.n_top
        north, south, props = [], [], []
        for i, j in enumerate(partner):
            if i < j:
                if j < m:
                    north.append((i + 1, j + 1, dec[i]))
                elif i >= m:
                    south.append((size - j, size - i, dec[i]))
                else:
                    props.append((i + 1, size - j, dec[i]))
        north, south = HalfDiagram(m, tuple(north)), HalfDiagram(m, tuple(south))
        if [(x, y) for x, y, _ in props] != list(zip(north.free_points, south.free_points)):
            raise ValueError("propagating edges do not join the free nodes in order")
        if any(r for _, _, r in props[1:]):
            raise ValueError("a propagating edge east of the westmost one is decorated")
        return Diagram(north, south, bool(props) and props[0][2] == 1)
    except ValueError as exc:
        raise ValueError(f"not a basis diagram: {exc}") from None


@st.composite
def square_crossing_tangles(draw):
    """Square tangles on up to 6 strands whose arcs may cross and may leave nodes uncovered,
    mostly with at most one decoration per arc so that the face checks are reached."""
    m = draw(st.integers(0, 6))
    refs = draw(st.permutations([N(i) for i in range(1, m + 1)] + [S(i) for i in range(1, m + 1)]))
    pairs = max(m - draw(st.sampled_from([0] * 9 + [1])), 0)
    decs = draw(st.lists(st.sampled_from([0, 0, 0, 0, 1, 1, 1, 2]), min_size=pairs, max_size=pairs))
    return DecoratedTangle(m, m, frozenset((refs[2 * k], refs[2 * k + 1], decs[k]) for k in range(pairs)))


@settings(max_examples=600, deadline=None, database=None)
@given(square_crossing_tangles())
def test_array_read_back_matches_the_face_constructors(t):
    assert read_back(t) == read_back(t, from_tangle_by_faces)


@pytest.mark.parametrize(
    "arcs, message",
    [
        # north caps (1,3) and (2,4) cross, and the decorated (2,4) opens inside (1,3)
        ({(N(1), N(3), 0), (N(2), N(4), 1), (S(1), S(2), 0), (S(3), S(4), 0)}, "caps (1,3) and (2,4) cross"),
        # the propagating edges cross, and the decorated cap (3,4) has free nodes to its west
        ({(N(1), S(2), 0), (N(2), S(1), 0), (N(3), N(4), 1), (S(3), S(4), 0)}, "decorated cap (3,4) is not west-exposed"),
        # the propagating edges cross, and the decorated south cap (3,4) has free nodes to its west
        ({(N(1), N(2), 1), (N(3), S(2), 0), (N(4), S(1), 0), (S(3), S(4), 1)}, "decorated cap (3,4) is not west-exposed"),
    ],
    ids=["crossing-caps", "crossing-edges", "crossing-edges-south-cap"],
)
def test_read_back_of_a_crossing_and_trapping_tangle_gives_the_face_message(arcs, message):
    t = DecoratedTangle(4, 4, frozenset(arcs))
    assert read_back(t) == read_back(t, from_tangle_by_faces) == f"not a basis diagram: {message}"


def test_array_read_back_matches_the_face_constructors_on_random_tangles():
    rng, outcomes = random.Random(20261019), Counter()
    for _ in range(1500):
        m = rng.randint(1, 7)
        t = random_tangle(rng, m, m, max_dec=1)
        expected = read_back(t, from_tangle_by_faces)
        assert read_back(t) == expected
        outcomes["accepted" if isinstance(expected, tuple) else expected.split(": ")[1][:12]] += 1
    # bases, faces with no decorated 1-2 and no plain adjacent cap, and each other fault
    assert min(outcomes.values()) >= 20 and len(outcomes) >= 4, outcomes


def test_diagram_hash_and_equality_do_not_depend_on_how_it_was_built():
    for m in range(1, 7):
        listed = {h.pairs: h for k in range(m // 2 + 1) for h in enumerate_half(m, k)}
        for d in enumerate_diagrams(m):
            twins = [
                Diagram(HalfDiagram(m, d.north.pairs), HalfDiagram(m, d.south.pairs), d.bullet),
                Diagram.from_tangle(d.tangle),
                Diagram.from_tangle(DecoratedTangle(m, m, d.tangle.arcs)),
                d.star().star(),
            ]
            assert all(x == d and hash(x) == hash(d) for x in twins)
            # each face the same with the same hash, whether built by the checking constructor, read back
            # from a tangle or listed by the enumeration; the hash is the dataclass's hash of its fields
            read = Diagram.from_tangle(DecoratedTangle(m, m, d.tangle.arcs))
            for face, built, back in ((d.north, twins[0].north, read.north), (d.south, twins[0].south, read.south)):
                faces = (face, built, back, listed[face.pairs])
                assert all(h == face and hash(h) == hash((m, face.pairs)) for h in faces)
                assert all(h.free_points == face.free_points for h in faces)
    ids = [Diagram(HalfDiagram(m), HalfDiagram(m)) for m in (3, 4)]
    assert ids[0] != ids[1] and hash(ids[0]) != hash(ids[1])  # the same empty faces on 3 and 4 strands
    every = [d for m in range(1, 7) for d in enumerate_diagrams(m)]
    assert len(set(every)) == len(every)


def test_diagram_constructor_rejects():
    with pytest.raises(ValueError, match="not a basis diagram"):
        Diagram.from_tangle(DecoratedTangle(2, 2, frozenset({(N(1), N(2), 0), (S(1), S(2), 0)})))


def test_from_dyadic_rejects():
    with pytest.raises(ValueError, match="strands"):
        Diagram(HalfDiagram(3), HalfDiagram(4))
    with pytest.raises(ValueError, match="cap count"):
        Diagram(HalfDiagram(4, ((2, 3, 0),)), HalfDiagram(4))
    h = HalfDiagram(4, ((1, 2, 1), (3, 4, 0)))
    with pytest.raises(ValueError, match="bullet needs"):
        Diagram(h, h, True)
    with pytest.raises(ValueError, match="bullet needs"):
        Diagram(HalfDiagram(3), HalfDiagram(3), True)
    with pytest.raises(ValueError, match="face N"):
        Diagram(HalfDiagram.figure_four(4, 2), enumerate_half(4, 2)[0])
    with pytest.raises(ValueError, match="face S"):
        Diagram(enumerate_half(4, 2)[0], HalfDiagram.figure_four(4, 2))


def test_from_dyadic_rejects_faces_and_bullets_of_other_types():
    # a str bullet would print as bulleted yet differ from the bool one in equality and hash
    h = HalfDiagram(3, ((1, 2, 1),))
    for bullet in ("yes", 1, None):
        with pytest.raises(ValueError, match="^a diagram needs two HalfDiagrams and a bool"):
            Diagram(h, h, bullet)
    for north, south in ((None, h), (h, None), (h.to_json(), h), (h, h.pairs)):
        with pytest.raises(ValueError, match="^a diagram needs two HalfDiagrams and a bool"):
            Diagram(north, south)
    assert Diagram(h, h, True) == Diagram(h, h, bullet=True) != Diagram(h, h)


def test_dyadic_round_trip():
    for m in (3, 4, 5):
        for d in enumerate_diagrams(m):
            assert Diagram.from_tangle(d.tangle) == d
            assert d.north.k == d.south.k == d.k
    h1, h2 = enumerate_half(4, 1)[0], enumerate_half(4, 1)[2]
    d = Diagram(h1, h2, True)
    assert (d.north, d.south, d.bullet) == (h1, h2, True)
    assert Diagram.from_tangle(d.tangle) == d


def tangle_reference(d: Diagram) -> DecoratedTangle:
    """The diagram's tangle built from NodeRef arcs, the way Diagram.tangle did before the
    boundary form; kept as its oracle."""
    arcs = {(N(a), N(b), dec) for a, b, dec in d.north.pairs}
    arcs |= {(S(a), S(b), dec) for a, b, dec in d.south.pairs}
    arcs |= {
        (N(x), S(y), 1 if d.bullet and i == 0 else 0)
        for i, (x, y) in enumerate(zip(d.north.free_points, d.south.free_points))
    }
    return DecoratedTangle(d.m, d.m, frozenset(arcs))


def test_every_diagram_tangle_matches_the_noderef_reference():
    for m in range(1, 7):
        for d in enumerate_diagrams(m):
            reference = tangle_reference(d)
            assert d.tangle == reference and (d.tangle.partner, d.tangle.dec) == (reference.partner, reference.dec)
            assert Diagram.from_tangle(d.tangle) == d
            assert Diagram.from_tangle(reference) == d


def test_star_swaps_faces():
    for d in enumerate_diagrams(4):
        assert d.star() == Diagram(d.south, d.north, d.bullet)
        assert d.star().tangle == flip(d.tangle)
        assert d.star().star() == d
    assert generator_U(1, 5).star() == generator_U(1, 5)


def test_enumerate_diagrams_against_brute_force():
    for m in (3, 4):
        listed = enumerate_diagrams(m)
        assert len(listed) == len(set(listed))
        assert set(listed) == brute_diagrams(m)
    assert len(enumerate_diagrams(3)) == 9
    assert len(enumerate_diagrams(4)) == 44


def test_enumerate_diagrams_cap():
    # the CLI's per-command caps are the only size guard; the library rejects only m < 1
    with pytest.raises(ValueError, match="^strand count must be positive, got 0$"):
        enumerate_diagrams(0)


@pytest.mark.parametrize("m", [3.0, True, "3", None])
def test_enumerate_diagrams_rejects_a_non_int_strand_count(m):
    with pytest.raises(ValueError, match="^strand count must be an integer"):
        enumerate_diagrams(m)


def test_strings():
    assert str(HalfDiagram(4)) == "-"
    assert str(HalfDiagram(4, ((1, 2, 1), (3, 4, 0)))) == "1-2* 3-4"
    assert str(enumerate_diagrams(3)[0]) == "id3"
    u1 = generator_U(1, 3)
    assert str(u1) == "|1-2*><1-2*|"
    h1 = HalfDiagram(3, ((1, 2, 1),))
    h2 = HalfDiagram(3, ((2, 3, 0),))
    assert str(Diagram(h1, h2, True)) == "|1-2*><2-3|*"


def test_json_round_trips():
    h = HalfDiagram(5, ((1, 2, 1), (3, 4, 0)))
    assert h.to_json() == {"m": 5, "caps": [[1, 2, 1], [3, 4, 0]]}
    for d in enumerate_diagrams(4):
        assert Diagram.from_json(d.to_json()) == d
    with pytest.raises(ValueError, match="must be integers"):
        Diagram.from_json(generator_U(1, 3).to_json() | {"n_top": 3.0, "n_bottom": 3.0})


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(1, 7).flatmap(lambda m: st.sampled_from(enumerate_diagrams(m))))
def test_json_round_trip_property(d):
    assert Diagram.from_json(json.loads(json.dumps(d.to_json()))) == d


# The pairwise face check and the shape-then-decoration-bits enumeration that
# the one-walk constructor and the decorating recursion replaced, kept as oracles.


def pairwise_exposed(a: int, b: int, pairs, free) -> bool:
    if any(f < a for f in free):
        return False
    return not any(c < a and b < d for c, d, _ in pairs)


def pairwise_face_check(m: int, pairs) -> tuple:
    """(every geometric fault in the order the old check met them, free nodes).

    The first fault is the message the old check raised; shape faults raise."""
    pairs = tuple(sorted(tuple(p) for p in pairs))
    used = set()
    for p in pairs:
        if len(p) != 3:
            raise ValueError(f"cap must be (west, east, dec), got {p!r}")
        a, b, dec = p
        if not (isinstance(a, int) and isinstance(b, int) and 1 <= a < b <= m):
            raise ValueError(f"bad cap endpoints ({a}, {b}) for {m} nodes")
        if dec not in (0, 1):
            raise ValueError(f"cap decoration must be 0 or 1, got {dec!r}")
        if used & {a, b}:
            raise ValueError(f"node on more than one cap in {pairs!r}")
        used |= {a, b}
    faults = [
        f"caps ({a},{b}) and ({c},{d}) cross"
        for (a, b, _), (c, d, _) in itertools.combinations(pairs, 2)
        if a < c < b < d or c < a < d < b
    ]
    free = [x for x in range(1, m + 1) if x not in used]
    for a, b, dec in pairs:
        if any(a < f < b for f in free):
            faults.append(f"cap ({a},{b}) covers an unpaired node")
        if dec and not pairwise_exposed(a, b, pairs, free):
            faults.append(f"decorated cap ({a},{b}) is not west-exposed")
    return faults, tuple(free)


def shapes(points: tuple, k: int):
    """Non-crossing k-cap matchings on an ordered point set, caps covering no free point."""
    if k == 0:
        yield ()
        return
    if len(points) < 2 * k:
        return
    p = points[0]
    yield from shapes(points[1:], k)  # p stays free
    for i in range(1, len(points), 2):
        inner_k = (i - 1) // 2
        if inner_k + 1 > k:
            break
        for si in shapes(points[1:i], inner_k):
            for so in shapes(points[i + 1 :], k - 1 - inner_k):
                yield ((p, points[i]),) + si + so


def faces_by_decoration_bits(m: int, k: int) -> tuple:
    out = []
    for shape in shapes(tuple(range(1, m + 1)), k):
        free = [x for x in range(1, m + 1) if not any(x in cap for cap in shape)]
        plain = tuple((a, b, 0) for a, b in shape)
        exposed = [(a, b) for a, b in shape if pairwise_exposed(a, b, plain, free)]
        hidden = [(a, b) for a, b in shape if (a, b) not in exposed]
        for bits in itertools.product((0, 1), repeat=len(exposed)):
            pairs = tuple((a, b, bit) for (a, b), bit in zip(exposed, bits))
            pairs += tuple((a, b, 0) for a, b in hidden)
            out.append(HalfDiagram(m, pairs))
    return tuple(sorted(out, key=lambda h: h.pairs))


def test_enumeration_matches_the_decoration_bits_oracle():
    for m in range(0, 11):
        for k in range(0, m // 2 + 1):
            assert [h.pairs for h in enumerate_generalized_half(m, k)] == [
                h.pairs for h in faces_by_decoration_bits(m, k)
            ]


def test_free_points_match_the_oracle():
    for m in range(0, 9):
        for k in range(0, m // 2 + 1):
            for h in enumerate_generalized_half(m, k):
                faults, free = pairwise_face_check(m, h.pairs)
                assert faults == [] and h.free_points == free


@st.composite
def raw_faces(draw):
    """Cap lists on up to 10 nodes: planar faces with one decoration flipped,
    arbitrary matchings, and now and then a malformed cap."""
    m = draw(st.integers(0, 10))
    k = draw(st.integers(0, m // 2))
    if draw(st.booleans()):
        pairs = list(draw(st.sampled_from(enumerate_generalized_half(m, k))).pairs)
        if pairs:
            i = draw(st.integers(0, k - 1))
            pairs[i] = pairs[i][:2] + (1 - pairs[i][2],)
    else:
        order = draw(st.permutations(range(1, m + 1)))
        decs = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        pairs = [(*sorted(order[2 * i : 2 * i + 2]), dec) for i, dec in enumerate(decs)]
    if pairs and draw(st.integers(0, 9)) == 0:
        a, b, dec = pairs[0]
        pairs[0] = draw(st.sampled_from([(a, b, 2), (b, a, dec), (a, m + 1, dec), (a, b)]))
    if len(pairs) > 1 and draw(st.integers(0, 9)) == 0:
        pairs[1] = (pairs[0][0], pairs[1][1], 0) if pairs[0][0] < pairs[1][1] else pairs[1]
    return m, tuple(pairs)


@settings(max_examples=600, deadline=None, database=None)
@given(raw_faces())
def test_face_check_matches_the_pairwise_oracle(face):
    m, pairs = face
    try:
        faults, free = pairwise_face_check(m, pairs)
    except ValueError as exc:  # a malformed cap: both checks run the same per-cap checks first
        with pytest.raises(ValueError) as info:
            HalfDiagram(m, pairs)
        assert str(info.value) == str(exc)
        return
    if not faults:
        assert HalfDiagram(m, pairs).free_points == free
        return
    with pytest.raises(ValueError) as info:
        HalfDiagram(m, pairs)
    assert str(info.value) in faults  # one of the faults the old check saw
    if len(faults) == 1:
        assert str(info.value) == faults[0]


def test_face_faults_found_in_one_walk():
    # a crossing is reported before a fault met earlier in the walk
    with pytest.raises(ValueError, match=r"^caps \(4,6\) and \(5,7\) cross$"):
        HalfDiagram(7, ((2, 3, 1), (4, 6, 0), (5, 7, 0)))
    # a free node under nested caps names the outermost one
    with pytest.raises(ValueError, match=r"^cap \(1,6\) covers an unpaired node$"):
        HalfDiagram(6, ((1, 6, 0), (2, 5, 0)))
    # otherwise the first fault met west to east is reported: node 2 comes
    # before the free node 4 (the pairwise check named the cover of (1,5))
    with pytest.raises(ValueError, match=r"^decorated cap \(2,3\) is not west-exposed$"):
        HalfDiagram(5, ((1, 5, 0), (2, 3, 1)))

