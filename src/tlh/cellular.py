"""Cell structure of the diagram algebra: labels, cell basis, forms, branching.

The basis diagrams stratify by the number k of caps per face.  Each stratum
with propagating edges splits into two cell layers, "plain k" and "bullet
k", spanned by the combinations

    bulleted diagram - gamma1 * plain diagram    (plain layer)
    bulleted diagram - gamma2 * plain diagram    (bullet layer)

where gamma1 = phi and gamma2 = 1 - phi are the two roots of x^2 = x + 1.
The identity spans the layer "0" and, on an even strand count, the
cap-saturated diagrams span a single "middle" layer with no bullet variant.
Layers are ordered by cap count: more caps means lower.

Because gamma1 != gamma2 the cell elements form a basis; inverting the
change of basis divides by gamma2 - gamma1 = 1 - 2*phi and so moves the
coefficients into rational golden scalars.  On each layer the generators act
by matrices that do not depend on the second (south) index, and the layer
carries a bilinear form whose matrix is computed here exactly; its
nonvanishing determinant for every layer certifies semisimplicity, and its
behaviour under dropping the eastmost strand gives the branching rules.
"""

from __future__ import annotations

import dataclasses
import functools
from fractions import Fraction
from math import comb

from tlh.algebra import AlgebraElement
from tlh.diagram import Diagram, HalfDiagram, enumerate_diagrams, enumerate_half, generator_U
from tlh.ring import G_ONE, G_ZERO, GAMMA1, GAMMA2, GoldenScalar, LaurentPoly

#: 1 / (gamma2 - gamma1): the only scalar the cell basis change needs to invert.
INV_GAMMA_GAP = GoldenScalar(Fraction(1, 5), Fraction(-2, 5))

#: Frame pairs gram_matrix re-checks above rank 4, where checking all is slow.
FRAME_CHECKS = 12

#: Expected constant term of a rescaled diagonal form entry, by layer kind.
_DIAG_CONSTANT = {
    "plain": G_ONE - GAMMA1 - GAMMA1,
    "bullet": G_ONE - GAMMA2 - GAMMA2,
    "zero": G_ONE,
    "middle": G_ONE,
}


class IndependenceViolation(Exception):
    """A cell coefficient depended on a choice the cell axioms forbid."""


@dataclasses.dataclass(frozen=True)
class CellLabel:
    """A cell layer: kind 'zero', 'plain', 'bullet' or 'middle', with cap count k."""

    kind: str
    k: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "plain", "bullet", "middle"):
            raise ValueError(f"unknown label kind {self.kind!r}")
        if (self.kind == "zero") != (self.k == 0) or self.k < 0:
            raise ValueError(f"label kind {self.kind!r} cannot have cap count {self.k}")

    def is_below(self, other: "CellLabel") -> bool:
        """Strictly lower in the cell order, which means strictly more caps."""
        return self.k > other.k

    def __str__(self) -> str:
        if self.kind == "zero":
            return "0"
        if self.kind == "middle":
            return "mid"
        return str(self.k) + ("b" if self.kind == "bullet" else "")

    @classmethod
    def parse(cls, text: str, n: int) -> "CellLabel":
        """Read a selector like '0', '2', '2b' or 'mid' for the rank-n poset."""
        if text == "0":
            return cls("zero")
        if text == "mid":
            if n % 2 == 0:
                raise ValueError(f"rank {n} has no middle label")
            return cls("middle", (n + 1) // 2)
        body, kind = (text[:-1], "bullet") if text.endswith("b") else (text, "plain")
        if not body.isdigit() or not 1 <= int(body) <= n // 2:
            raise ValueError(f"unknown cell label {text!r} for rank {n}")
        return cls(kind, int(body))


@functools.cache
def lambda_poset(n: int) -> tuple:
    """All cell labels at rank n: zero, plain/bullet pairs, middle when n is odd."""
    if n < 2:
        raise ValueError(f"the cell poset needs rank at least 2, got {n}")
    labels = [CellLabel("zero")]
    for k in range(1, n // 2 + 1):
        labels += [CellLabel("plain", k), CellLabel("bullet", k)]
    if n % 2:
        labels.append(CellLabel("middle", (n + 1) // 2))
    return tuple(labels)


def tableaux(label: CellLabel, n: int) -> tuple:
    """The half-diagrams indexing a cell layer, in canonical order."""
    if label not in lambda_poset(n):
        raise ValueError(f"label {label} is not in the rank-{n} poset")
    return enumerate_half(n + 1, label.k)


def cell_element(label: CellLabel, d1: HalfDiagram, d2: HalfDiagram) -> AlgebraElement:
    """The cell basis element of a layer attached to a pair of half-diagrams."""
    if d1.m != d2.m:
        raise ValueError(f"half-diagrams on {d1.m} and {d2.m} nodes")
    if d1.k != label.k or d2.k != label.k:
        raise ValueError(
            f"label {label} needs {label.k}-cap halves, got {d1.k} and {d2.k}"
        )
    if label.kind in ("zero", "middle"):
        if label.kind == "middle" and 2 * label.k != d1.m:
            raise ValueError(f"middle label needs {2 * label.k} strands, got {d1.m}")
        return AlgebraElement.from_diagram(Diagram(d1, d2))
    if 2 * label.k >= d1.m:
        raise ValueError(f"label {label} needs a propagating edge on {d1.m} strands")
    gamma = GAMMA1 if label.kind == "plain" else GAMMA2
    return AlgebraElement(
        d1.m,
        {
            Diagram(d1, d2, bullet=True): G_ONE,
            Diagram(d1, d2, bullet=False): -gamma,
        },
    )


def expand_in_cell_basis(x: AlgebraElement) -> dict:
    """Exact coefficients of an element over the cell basis.

    Keys are (label, north half, south half); values are Laurent polynomials
    whose golden coordinates may be rational, since the change of basis
    divides by gamma2 - gamma1.
    """
    out: dict = {}

    def add(key, c):
        cur = out.get(key, LaurentPoly.zero()) + c
        if cur.is_zero():
            out.pop(key, None)
        else:
            out[key] = cur

    for d, coeff in x.items():
        if d.k == 0:
            add((CellLabel("zero"), d.north, d.south), coeff)
        elif d.prop_count == 0:
            add((CellLabel("middle", d.k), d.north, d.south), coeff)
        elif d.bullet:
            add((CellLabel("plain", d.k), d.north, d.south), coeff * (GAMMA2 * INV_GAMMA_GAP))
            add((CellLabel("bullet", d.k), d.north, d.south), coeff * (-GAMMA1 * INV_GAMMA_GAP))
        else:
            add((CellLabel("plain", d.k), d.north, d.south), coeff * INV_GAMMA_GAP)
            add((CellLabel("bullet", d.k), d.north, d.south), coeff * (-INV_GAMMA_GAP))
    return out


def combine_cell_terms(m: int, coefficients: dict) -> AlgebraElement:
    """Re-sum a cell-basis coefficient map into an algebra element."""
    total = AlgebraElement.zero(m)
    for (label, d1, d2), c in coefficients.items():
        total = total + cell_element(label, d1, d2).scale(c)
    return total


class RingMatrix:
    """A rectangular matrix of Laurent polynomials, with exact determinant."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        clean = []
        width = None
        for row in rows:
            entries = []
            for x in row:
                poly = LaurentPoly._coerce(x)
                if poly is None:
                    raise TypeError(f"bad matrix entry {x!r}")
                entries.append(poly)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("matrix rows have unequal lengths")
            clean.append(tuple(entries))
        self.rows = tuple(clean)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.rows == other.rows

    def is_symmetric(self) -> bool:
        if self.n_rows != self.n_cols:
            return False
        return all(
            self.rows[i][j] == self.rows[j][i]
            for i in range(self.n_rows)
            for j in range(i + 1, self.n_cols)
        )

    def submatrix(self, row_idx, col_idx) -> "RingMatrix":
        return RingMatrix(
            tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx)
        )

    def det(self) -> LaurentPoly:
        """Determinant by fraction-free elimination; every division is exact."""
        if self.n_rows != self.n_cols:
            raise ValueError(f"determinant of a {self.n_rows}x{self.n_cols} matrix")
        n = self.n_rows
        if n == 0:
            return LaurentPoly.one()
        a = [list(row) for row in self.rows]
        sign = 1
        prev = LaurentPoly.one()
        for p in range(n - 1):
            if a[p][p].is_zero():
                swap = next((i for i in range(p + 1, n) if not a[i][p].is_zero()), None)
                if swap is None:
                    return LaurentPoly.zero()
                a[p], a[swap] = a[swap], a[p]
                sign = -sign
            for i in range(p + 1, n):
                for j in range(p + 1, n):
                    num = a[p][p] * a[i][j] - a[i][p] * a[p][j]
                    quot = num.exact_div(prev)
                    assert quot is not None, "fraction-free elimination left a remainder"
                    a[i][j] = quot
                a[i][p] = LaurentPoly.zero()
            prev = a[p][p]
        result = a[n - 1][n - 1]
        return -result if sign < 0 else result

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)

    def __repr__(self) -> str:
        return f"<RingMatrix {self.n_rows}x{self.n_cols}>"

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.rows]


def cell_action_matrix(a: AlgebraElement, label: CellLabel, *, check_all_T: bool = True) -> RingMatrix:
    """The matrix of an element acting on a cell layer.

    Entry (i, j) is the coefficient of the i-th tableau in a * C(S_j, T),
    taken modulo lower layers.  The computation fixes the south tableau T
    and, unless disabled, repeats it for every other T to confirm the
    coefficients do not depend on that choice.
    """
    n = a.m - 1
    tabs = tableaux(label, n)
    index = {h: i for i, h in enumerate(tabs)}

    def columns(T):
        cols = []
        for S in tabs:
            product = a * cell_element(label, S, T)
            col = [LaurentPoly.zero()] * len(tabs)
            for (mu, sp, tp), c in expand_in_cell_basis(product).items():
                if mu.is_below(label):
                    continue
                if mu == label and tp == T:
                    col[index[sp]] = c
                else:
                    raise IndependenceViolation(
                        f"action on layer {label} leaks into layer {mu} at ({sp}, {tp})"
                    )
            cols.append(col)
        return cols

    base = columns(tabs[0])
    if check_all_T:
        for T in tabs[1:]:
            if columns(T) != base:
                raise IndependenceViolation(
                    f"action coefficients on layer {label} depend on the south tableau"
                )
    size = len(tabs)
    return RingMatrix(tuple(tuple(base[j][i] for j in range(size)) for i in range(size)))


def gram_matrix(label: CellLabel, n: int) -> RingMatrix:
    """The bilinear form on a cell layer.

    Entry (d1, d2) is the coefficient of C(e1, e2) in C(e1, d1) * C(d2, e2)
    modulo lower layers, for a fixed frame pair (e1, e2).  The matrix is
    recomputed against other frame pairs -- all of them for n <= 4, else
    FRAME_CHECKS evenly spaced ones -- to confirm the frame does not matter.
    """
    tabs = tableaux(label, n)

    def entries(e1, e2):
        right = [cell_element(label, d2, e2) for d2 in tabs]
        rows = []
        for d1 in tabs:
            left = cell_element(label, e1, d1)
            row = []
            for factor in right:
                product = left * factor
                val = LaurentPoly.zero()
                for (mu, sp, tp), c in expand_in_cell_basis(product).items():
                    if mu.is_below(label):
                        continue
                    if mu == label and sp == e1 and tp == e2:
                        val = c
                    else:
                        raise IndependenceViolation(
                            f"form on layer {label} leaks into layer {mu} at ({sp}, {tp})"
                        )
                row.append(val)
            rows.append(row)
        return rows

    pairs = [(e1, e2) for e1 in tabs for e2 in tabs]
    base = entries(*pairs[0])
    others = pairs[1:]
    if n > 4 and len(others) > FRAME_CHECKS:
        others = others[:: len(others) // FRAME_CHECKS][:FRAME_CHECKS]
    for e1, e2 in others:
        if entries(e1, e2) != base:
            raise IndependenceViolation(
                f"form entries on layer {label} depend on the frame pair"
            )
    return RingMatrix(base)


def verify_cellular_axioms(n: int) -> list:
    """Check the three cell axioms at rank n; [] means all hold.

    Axiom 1 (basis): the cell elements are pairwise distinct, there are
    exactly as many as basis diagrams, and expanding every basis diagram in
    the cell basis and re-summing returns the diagram.  Axiom 2: the flip
    anti-automorphism swaps the two tableaux of every cell element.  Axiom 3:
    every generator acts on every layer with coefficients independent of the
    south tableau.
    """
    problems = []
    m = n + 1
    labels = lambda_poset(n)
    diagrams = enumerate_diagrams(m)

    count = sum(len(tableaux(label, n)) ** 2 for label in labels)
    if count != len(diagrams):
        problems.append(f"cell basis has {count} elements but the rank is {len(diagrams)}")

    seen: dict = {}
    for label in labels:
        tabs = tableaux(label, n)
        for S in tabs:
            for T in tabs:
                element = cell_element(label, S, T)
                key = tuple((d, tuple(c.items())) for d, c in element.items())
                if key in seen:
                    problems.append(f"cell elements ({label}, {S}, {T}) and {seen[key]} coincide")
                else:
                    seen[key] = (str(label), str(S), str(T))
                if cell_element(label, T, S) != element.star():
                    problems.append(f"flip of cell element ({label}, {S}, {T}) is not ({label}, {T}, {S})")

    for d in diagrams:
        x = AlgebraElement.from_diagram(d)
        if combine_cell_terms(m, expand_in_cell_basis(x)) != x:
            problems.append(f"cell expansion does not round-trip on {d}")

    for label in labels:
        for i in range(1, n + 1):
            u = AlgebraElement.from_diagram(generator_U(i, m))
            try:
                cell_action_matrix(u, label, check_all_T=True)
            except IndependenceViolation as exc:
                problems.append(f"U{i}: {exc}")
    return problems


def semisimplicity_check(n: int) -> list:
    """Nondegeneracy and near-orthogonality of every layer's form; [] means pass.

    For each layer the form matrix must be symmetric with nonzero
    determinant, every entry rescaled by v^(-k) must be a polynomial in 1/v,
    off-diagonal constant terms must vanish, and diagonal constant terms must
    equal 1 - 2*gamma1 (plain), 1 - 2*gamma2 (bullet) or 1 (zero and middle
    layers, whose cell elements carry no gamma).
    """
    problems = []
    for label in lambda_poset(n):
        tabs = tableaux(label, n)
        try:
            form = gram_matrix(label, n)
        except IndependenceViolation as exc:
            problems.append(f"layer {label}: {exc}")
            continue
        if not form.is_symmetric():
            problems.append(f"layer {label}: form matrix is not symmetric")
        if form.det().is_zero():
            problems.append(f"layer {label}: form determinant vanishes")
        expected = _DIAG_CONSTANT[label.kind]
        for i, d1 in enumerate(tabs):
            for j, d2 in enumerate(tabs):
                g = form.entry(i, j)
                if not g.is_zero() and g.max_exp > label.k:
                    problems.append(f"layer {label}: <{d1}, {d2}> exceeds degree {label.k}")
                top = g.coefficient(label.k)
                if i == j and top != expected:
                    problems.append(f"layer {label}: diagonal constant at {d1} is {top}, not {expected}")
                if i != j and not top.is_zero():
                    problems.append(f"layer {label}: off-diagonal constant at ({d1}, {d2}) is {top}")
    return problems


def label_minus_one(label: CellLabel, n: int) -> CellLabel:
    """The factor label one cap down in the rank-(n-1) poset."""
    if not 0 < 2 * label.k < n + 1:
        raise ValueError(f"no reduced label for {label} at rank {n}")
    k = label.k
    if k == 1:
        return CellLabel("zero")
    if label.kind == "bullet" and 2 * (k - 1) != n:
        return CellLabel("bullet", k - 1)
    if 2 * (k - 1) == n:
        return CellLabel("middle", k - 1)
    return CellLabel("plain", k - 1)


def _restricted_label(label: CellLabel, n: int) -> CellLabel:
    """The same layer viewed inside the rank-(n-1) poset.

    A layer of size n/2 has no plain/bullet variant one rank down; it becomes
    the middle label there.
    """
    if 2 * label.k == n:
        return CellLabel("middle", label.k)
    return label


def _match_blocks(problems, name, got: RingMatrix, want: RingMatrix):
    if got != want:
        problems.append(f"{name}: diagonal block differs from the factor action")


def _general_branching(label: CellLabel, n: int) -> dict:
    m = n + 1
    k = label.k
    tabs = tableaux(label, n)
    problems: list = []

    free, capped = [], []
    for idx, S in enumerate(tabs):
        (free if m in S.free_points else capped).append(idx)

    sub_label = _restricted_label(label, n)
    sub_pos = {h: i for i, h in enumerate(tableaux(sub_label, n - 1))}
    free.sort(key=lambda idx: sub_pos[HalfDiagram(m - 1, tabs[idx].pairs)])
    if len(free) != len(sub_pos):
        problems.append(f"east-free count {len(free)} != layer size {len(sub_pos)}")

    lm1 = label_minus_one(label, n)
    mid_pos = {h: i for i, h in enumerate(tableaux(lm1, n - 1))}
    mid, top = [], []
    for idx in capped:
        S = tabs[idx]
        east = next(p for p in S.pairs if p[1] == m)
        assert east[2] == 0, "an east cap under propagating edges cannot be decorated"
        image = HalfDiagram(m - 1, tuple(p for p in S.pairs if p[1] != m))
        if image.admissible():
            mid.append((idx, image))
        else:
            top.append(idx)
            if image != HalfDiagram.figure_four(m - 1, k - 1):
                problems.append(f"unexpected inadmissible east-capped image {image}")
    mid.sort(key=lambda pair: mid_pos[pair[1]])
    if len(mid) != len(mid_pos):
        problems.append(f"east-capped count {len(mid)} != layer size {len(mid_pos)}")
    if len(top) != (1 if k >= 2 else 0):
        problems.append(f"{len(top)} trivial-top elements instead of {1 if k >= 2 else 0}")

    order = free + [idx for idx, _ in mid] + top
    nf, nm = len(free), len(mid)
    size = len(order)
    for i in range(1, n):
        u = AlgebraElement.from_diagram(generator_U(i, m))
        action = cell_action_matrix(u, label, check_all_T=False)
        R = action.submatrix(order, order)
        for r in range(size):
            for c in range(size):
                lower_left = (r >= nf and c < nf) or (r >= nf + nm and c < nf + nm)
                if lower_left and not R.entry(r, c).is_zero():
                    problems.append(f"U{i}: nonzero entry below the diagonal blocks at ({r}, {c})")
        if top and not R.entry(size - 1, size - 1).is_zero():
            problems.append(f"U{i}: trivial top is not annihilated")
        u_small = AlgebraElement.from_diagram(generator_U(i, m - 1))
        _match_blocks(
            problems,
            f"U{i} on layer {sub_label}",
            R.submatrix(range(nf), range(nf)),
            cell_action_matrix(u_small, sub_label, check_all_T=False),
        )
        _match_blocks(
            problems,
            f"U{i} on layer {lm1}",
            R.submatrix(range(nf, nf + nm), range(nf, nf + nm)),
            cell_action_matrix(u_small, lm1, check_all_T=False),
        )

    blocks = [
        {"factor": str(sub_label), "dim": nf},
        {"factor": str(lm1), "dim": nm},
    ]
    if top:
        blocks.append({"factor": "0", "dim": 1})
    return {
        "label": str(label),
        "dim": len(tabs),
        "blocks": blocks,
        "problems": problems,
        "guard_flag": label.kind == "bullet" and k > 1 and 2 * (k - 1) == n,
    }


def _middle_branching(label: CellLabel, n: int) -> dict:
    m = n + 1
    k = label.k
    tabs = tableaux(label, n)
    problems: list = []

    d0 = HalfDiagram(
        m,
        ((1, 2, 0),) + tuple((2 * j - 1, 2 * j, 1) for j in range(2, k)) + ((m - 1, m, 0),),
    )
    d0_idx = tabs.index(d0)
    index = {h: i for i, h in enumerate(tabs)}

    small_pos = {h: i for i, h in enumerate(tableaux(CellLabel("plain", k - 1), n - 1))}
    orbits = []
    for idx, S in enumerate(tabs):
        if idx == d0_idx:
            continue
        east = next(p for p in S.pairs if p[1] == m)
        if east[2]:
            continue
        partner = HalfDiagram(m, tuple(p for p in S.pairs if p[1] != m) + ((east[0], m, 1),))
        image = HalfDiagram(m - 1, tuple(p for p in S.pairs if p[1] != m))
        orbits.append((idx, index[partner], image))
    orbits.sort(key=lambda orbit: small_pos[orbit[2]])
    q = len(orbits)
    if q != len(small_pos) or 2 * q + 1 != len(tabs):
        problems.append(f"orbit count {q} does not match layer sizes")

    for i in range(1, n):
        u = AlgebraElement.from_diagram(generator_U(i, m))
        R = cell_action_matrix(u, label, check_all_T=False)

        def new_coords(w):
            c1, c2 = [], []
            for i_plain, i_dec, _ in orbits:
                x, y = w[i_plain], w[i_dec]
                c1.append((x + y * GAMMA2) * INV_GAMMA_GAP)
                c2.append((x + y * GAMMA1) * (-INV_GAMMA_GAP))
            return c1, c2, w[d0_idx]

        a1_cols, a2_cols = [], []
        for i_plain, i_dec, _ in orbits:
            for gamma, own in ((GAMMA1, 1), (GAMMA2, 2)):
                w = [
                    R.entry(r, i_dec) - R.entry(r, i_plain) * gamma
                    for r in range(len(tabs))
                ]
                c1, c2, c0 = new_coords(w)
                stray = c2 if own == 1 else c1
                if any(not e.is_zero() for e in stray) or not c0.is_zero():
                    problems.append(f"U{i}: the two decoration layers do not split")
                (a1_cols if own == 1 else a2_cols).append(c1 if own == 1 else c2)
        c1, c2, c0 = new_coords([R.entry(r, d0_idx) for r in range(len(tabs))])
        if not c0.is_zero():
            problems.append(f"U{i}: trivial top is not annihilated")

        u_small = AlgebraElement.from_diagram(generator_U(i, m - 1))
        for cols, kind in ((a1_cols, "plain"), (a2_cols, "bullet")):
            got = RingMatrix(tuple(tuple(cols[j][r] for j in range(q)) for r in range(q)))
            _match_blocks(
                problems,
                f"U{i} on layer {CellLabel(kind, k - 1)}",
                got,
                cell_action_matrix(u_small, CellLabel(kind, k - 1), check_all_T=False),
            )

    if comb(n + 1, k) - 1 != 1 + 2 * (comb(n, k - 1) - 1):
        problems.append("middle dimension identity fails")
    return {
        "label": str(label),
        "dim": len(tabs),
        "blocks": [
            {"factor": str(CellLabel("plain", k - 1)), "dim": q},
            {"factor": str(CellLabel("bullet", k - 1)), "dim": q},
            {"factor": "0", "dim": 1},
        ],
        "problems": problems,
        "guard_flag": False,
    }


def branching_report(label: CellLabel, n: int) -> dict:
    """How a cell layer decomposes when the east strand is dropped.

    Reorders (or, for the middle layer, linearly changes) the layer basis so
    that every subalgebra generator acts block-triangularly, and checks each
    diagonal block entrywise against the action on the identified factor
    layer one rank down.  Returns the factors, block dimensions and any
    discrepancies.
    """
    if n < 3:
        raise ValueError(f"branching needs rank at least 3, got {n}")
    if label not in lambda_poset(n):
        raise ValueError(f"label {label} is not in the rank-{n} poset")
    if label.kind == "zero":
        problems = []
        for i in range(1, n):
            u = AlgebraElement.from_diagram(generator_U(i, n + 1))
            R = cell_action_matrix(u, label, check_all_T=False)
            if not R.entry(0, 0).is_zero():
                problems.append(f"U{i}: trivial layer is not annihilated")
        return {
            "label": "0",
            "dim": 1,
            "blocks": [{"factor": "0", "dim": 1}],
            "problems": problems,
            "guard_flag": False,
        }
    if label.kind == "middle":
        return _middle_branching(label, n)
    return _general_branching(label, n)


def verify_branching(n: int) -> list:
    """Check the branching of every layer at rank n; [] means all hold."""
    problems = []
    for label in lambda_poset(n):
        report = branching_report(label, n)
        problems += [f"layer {label}: {p}" for p in report["problems"]]
        if report["guard_flag"]:
            problems.append(f"layer {label}: unreachable reduction guard was triggered")
        total = sum(b["dim"] for b in report["blocks"])
        if total != report["dim"]:
            problems.append(f"layer {label}: block dimensions sum to {total}, not {report['dim']}")
    for k in range(1, n // 2 + 1):
        if comb(n + 1, k) - 1 != 1 + (comb(n, k - 1) - 1) + (comb(n, k) - 1):
            problems.append(f"dimension identity fails at cap count {k}")
    return problems
