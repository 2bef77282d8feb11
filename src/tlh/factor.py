"""Factorization of basis diagrams into generator words.

Every basis diagram is a product of generators; this module produces an
explicit word, built from verified local rewriting moves.  Reading a move
as "word w times diagram D' equals diagram D", planning runs backwards from
the target diagram D, peeling one move at a time and appending its tokens:

  * un-nesting: if an innermost non-adjacent cap {j, k} sits over its
    eastmost child {k-2, k-1}, then U_{k-2} times the diagram with caps
    {j, k-2}, {k-1, k} instead restores the original;
  * cap slides: U_p turns a free point p next to a plain cap {p+1, p+2}
    into a cap {p, p+1} next to a free point p+2 (p >= 2), and U_{p+1}
    performs the westward slide in the same sense;
  * decoration shifts between adjacent caps: U_i U_{i+1} moves a decoration
    from cap {i, i+1} east to {i+2, i+3} (i >= 2), U_{i+2} U_{i+1} moves it
    back west (i >= 1);
  * decoration bookkeeping at the wall: alpha adds a decoration to the cap
    {3, 4} when {1, 2} is decorated, and U_3 zeta strips the decoration of
    {1, 2} when {3, 4} is plain.

Both faces are reduced to a seed whose word is known: a short word on the
first three strands fixing the westmost cap of each face and the propagating
decoration, followed by U_4 U_6 ... placing the remaining caps.  The final
word is verified by evaluation before it is returned.
"""

from __future__ import annotations

from tlh.algebra import AlgebraElement, evaluate_word
from tlh.diagram import Diagram, HalfDiagram, generator_U


class FactorizationError(Exception):
    """A diagram could not be planned, or its word failed to evaluate back to it."""


#: seed words keyed by (north starts with a free point, south starts with a
#: free point, propagating edge decorated); all eight patterns are distinct.
_SEED_TABLE = {
    (False, False, False): ["U1"],
    (True, True, False): ["U2"],
    (False, True, True): ["U1", "U2"],
    (True, False, True): ["U2", "U1"],
    (False, False, True): ["U1", "beta"],
    (True, True, True): ["U2", "alpha"],
    (False, True, False): ["U1", "zeta"],
    (True, False, False): ["U2", "epsilon"],
}

_STAR_TOKEN = {"alpha": "beta", "beta": "alpha"}


def _unnest(h: HalfDiagram) -> tuple[list, HalfDiagram]:
    """Peel nested caps off a face; tokens w with |h> = w |flat>."""
    caps = {(a, b): dec for a, b, dec in h.pairs}
    tokens = []
    while True:
        nested = [(a, b) for a, b in caps if b > a + 1]
        if not nested:
            break
        # an innermost non-adjacent cap: every cap inside it is adjacent
        j, k = next(
            (a, b)
            for a, b in nested
            if all(not (a < c and d < b) for c, d in nested if (c, d) != (a, b))
        )
        if caps.get((k - 2, k - 1)) != 0:
            raise FactorizationError(f"nested caps in {h} must tile and be plain")
        dec = caps.pop((j, k))
        del caps[(k - 2, k - 1)]
        caps[(j, k - 2)] = dec
        caps[(k - 1, k)] = 0
        tokens.append(f"U{k - 2}")
    flat = HalfDiagram(h.m, tuple((a, b, dec) for (a, b), dec in caps.items()))
    return tokens, flat


def _plan_flat(h: HalfDiagram) -> tuple[list, bool]:
    """Reduce a flat face to its seed form; (tokens, face starts free).

    Returns tokens w such that |h> = w |seed face>, acting on the north face
    only.  The seed face is {2,3}, {4,5}, ..., {2k, 2k+1} when position 1 is
    free, and {1,2} decorated followed by {4,5}, ..., {2k, 2k+1} (or by
    {3,4}, ..., {2k-1, 2k} when there are no free points) otherwise.
    """
    caps = sorted((a, dec) for a, b, dec in h.pairs)
    if any(b != a + 1 for a, b, _ in h.pairs):
        raise FactorizationError(f"face {h} must be flat here")
    k = len(caps)
    r = h.m - 2 * k
    tokens: list = []
    starts_free = caps[0][0] != 1
    if starts_free:
        if any(dec for _, dec in caps):
            raise FactorizationError(f"face {h} starts free but has a decorated cap")
        for t, (a, _) in enumerate(caps, start=1):
            if a < 2 * t:
                raise FactorizationError(f"cap {t} of {h} starts west of node {2 * t}")
            tokens += [f"U{q}" for q in range(a, 2 * t, -1)]  # slide west
        return tokens, True
    # pack the caps against the west wall
    decorated = set()
    for t, (a, dec) in enumerate(caps, start=1):
        if a < 2 * t - 1:
            raise FactorizationError(f"cap {t} of {h} starts west of node {2 * t - 1}")
        if dec:
            if a != 2 * t - 1:
                raise FactorizationError(f"decorated cap {t} of {h} is not packed")
            decorated.add(t)
        tokens += [f"U{q}" for q in range(a, 2 * t - 1, -1)]
    # normalize decorations to "westmost cap only"
    if 1 not in decorated:
        if decorated:
            j0 = min(j for j in range(2, k + 1) if j not in decorated)
            for t in range(j0 - 1, 1, -1):  # push the block one cap east
                tokens += [f"U{2 * t + 1}", f"U{2 * t}"]
                decorated.discard(t)
                decorated.add(t + 1)
        if k < 2 or 2 in decorated:
            raise FactorizationError(f"cannot decorate the westmost cap of {h}")
        tokens += ["U3", "zeta"]  # decorate the westmost cap
        decorated.add(1)
    for j in sorted(decorated - {1}):
        for t in range(j, 2, -1):  # carry the decoration west to cap 2
            tokens += [f"U{2 * t - 3}", f"U{2 * t - 2}"]
        tokens += ["alpha"]  # absorb it at the wall
    if r >= 1:
        for j in range(k, 1, -1):  # open the gap at position 3
            tokens += [f"U{2 * j - 1}"]
    return tokens, False


def _seed_word(k: int, r: int, north_free: bool, south_free: bool, bullet: bool) -> list:
    if r == 0:
        if north_free or south_free or bullet:
            raise FactorizationError("a diagram with no propagating edge has a plain seed")
        return ["U1"] + [f"U{2 * j - 1}" for j in range(2, k + 1)]
    word = list(_SEED_TABLE[(north_free, south_free, bullet)])
    word += [f"U{2 * j}" for j in range(2, k + 1)]
    return word


def factorize(d: Diagram) -> list:
    """A generator word evaluating exactly to the given basis diagram."""
    word: list = []
    gen = next((i for i in range(1, d.m) if d == generator_U(i, d.m)), None)
    if gen is not None:
        word = [f"U{gen}"]
    elif d.k > 0:
        prefix, north_flat = _unnest(d.north)
        post, south_flat = _unnest(d.south)
        w_north, north_free = _plan_flat(north_flat)
        w_south, south_free = _plan_flat(south_flat)
        word += prefix + w_north
        word += _seed_word(d.k, d.prop_count, north_free, south_free, d.bullet)
        word += [_STAR_TOKEN.get(t, t) for t in reversed(w_south)]
        word += [_STAR_TOKEN.get(t, t) for t in reversed(post)]
    check = evaluate_word(word, d.m)
    if check != AlgebraElement.from_diagram(d):
        raise FactorizationError(
            f"word {' '.join(word) or '1'} evaluates to {check}, not to {d}"
        )
    return word
