"""Cell structure of the diagram algebra: labels, cell basis, forms, branching.

The basis diagrams stratify by the number k of caps per face; one rule,
``_stratum``, gives each stratum's cell layers.  The identity spans "0", the
cap-saturated diagrams on an even strand count span "middle", and any other
stratum splits into sibling layers "plain k" and "bullet k", spanned by the
bulleted and plain diagrams B(S, T), P(S, T) on a pair of tableaux through

    C(S, T) = B(S, T) - gamma * P(S, T)

with gamma = gamma1 = phi (plain) or gamma2 = 1 - phi (bullet), the two
roots of x^2 = x + 1.  Layers are ordered by cap count: more caps means lower.

The sibling table ``_SIBLINGS`` gives each kind's gamma and ``_D`` its
D = 1 - 2*gamma.  P has coordinate 1/D and B (1 - gamma)/D on each kind's C,
so P = C_plain / D_plain + C_bullet / D_bullet; D_plain = gamma2 - gamma1 has
norm -5.  That is the one division in the cell basis: ``expand_in_cell_basis``
sums the integral D-scaled coordinates (1 and 1 - gamma) per cell key in
Z[phi] and divides each sibling key by its D once.  On each layer the
generators act by matrices that do not depend on the south tableau, and the
layer carries a bilinear form.  Both are read off products of plain diagrams
whose glued factor carries D (action) or D^2 (form: 5 on siblings, else 1),
so every division is exact; the sibling layers' cross terms vanish modulo
lower layers, so one product pass gives a stratum's forms.  The bullet rule
-- a * B has (1 - gamma) times the layer part of a * P -- checks for leaks
between siblings.  Every form entry is fixed by v -> 1/v, so ``gram_det``
rewrites the form as polynomials in delta = [2] = v + v^(-1), half as long,
takes the one Bareiss determinant there and writes it back in v.  The form's
nonvanishing determinant for every layer certifies semisimplicity, and its
behaviour under dropping the eastmost strand gives the branching rules.
"""

from __future__ import annotations

import dataclasses

from tlh.algebra import AlgebraElement
from tlh.diagram import Diagram, HalfDiagram, enumerate_diagrams, enumerate_half, generator_U
from tlh.ring import G_ONE, G_ZERO, GAMMA1, GAMMA2, LaurentPoly, _arg, from_delta, to_delta

#: Frame pairs gram_matrix re-checks above rank 4, where checking all is slow.
FRAME_CHECKS = 12

#: The sibling table: for each sibling kind, gamma in its cell elements C = B - gamma*P.
_SIBLINGS = {"plain": GAMMA1, "bullet": GAMMA2}

#: D = 1 - 2*gamma by layer kind, with gamma = 0 off the siblings; the glued
#: factor of an action (D) or form (D^2) product carries it, and it is the
#: constant term of a rescaled diagonal form entry.
_D = {kind: 1 - 2 * g for kind, g in {"zero": G_ZERO, "middle": G_ZERO, **_SIBLINGS}.items()}

#: The D-scaled coordinate 1 - gamma of B on each sibling kind's C; also the bullet rule's ratio.
_BULLET_WEIGHTS = {kind: 1 - g for kind, g in _SIBLINGS.items()}

_ZERO = LaurentPoly.zero()  # shared: a LaurentPoly is never changed in place


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
        _arg(self.k, (int,), "cap count must be an integer")
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
        for label in lambda_poset(n):
            if str(label) == text:
                return label
        raise ValueError(f"unknown cell label {text!r} for rank {n}")


def _stratum(m: int, k: int) -> tuple:
    """The cell layers the k-cap diagrams on m strands span."""
    if k == 0:
        return (CellLabel("zero"),)
    if 2 * k == m:
        return (CellLabel("middle", k),)
    return tuple(CellLabel(kind, k) for kind in _SIBLINGS)


def lambda_poset(n: int) -> tuple:
    """All cell labels at rank n: zero, plain/bullet pairs, middle when n is odd."""
    if _arg(n, (int,), "rank must be an integer") < 2:
        raise ValueError(f"the cell poset needs rank at least 2, got {n}")
    return tuple(label for k in range((n + 1) // 2 + 1) for label in _stratum(n + 1, k))


def tableaux(label: CellLabel, n: int) -> tuple:
    """The half-diagrams indexing a cell layer, in canonical order."""
    if label not in lambda_poset(n):
        raise ValueError(f"label {label} is not in the rank-{n} poset")
    return enumerate_half(n + 1, label.k)


def _diagram(S: HalfDiagram, T: HalfDiagram, bullet: bool = False, coeff=G_ONE) -> AlgebraElement:
    return AlgebraElement(S.m, {Diagram(S, T, bullet): coeff})


def cell_element(label: CellLabel, d1: HalfDiagram, d2: HalfDiagram) -> AlgebraElement:
    """The cell basis element of a layer attached to a pair of half-diagrams."""
    if (type(label), type(d1), type(d2)) != (CellLabel, HalfDiagram, HalfDiagram):
        raise ValueError(f"a cell element needs a CellLabel and two HalfDiagrams, got {label!r}, {d1!r}, {d2!r}")
    if d1.m != d2.m:
        raise ValueError(f"half-diagrams on {d1.m} and {d2.m} nodes")
    if d1.k != label.k or d2.k != label.k:
        raise ValueError(
            f"label {label} needs {label.k}-cap halves, got {d1.k} and {d2.k}"
        )
    if label not in _stratum(d1.m, label.k):
        raise ValueError(f"label {label} is not a layer of {label.k}-cap diagrams on {d1.m} strands")
    if label.kind not in _SIBLINGS:
        return _diagram(d1, d2)
    return AlgebraElement(d1.m, {Diagram(d1, d2, True): G_ONE, Diagram(d1, d2): -_SIBLINGS[label.kind]})


def expand_in_cell_basis(x: AlgebraElement) -> dict:
    """Exact coefficients of an element over the cell basis.

    Keys are (label, north half, south half); values are Laurent polynomials
    whose golden coordinates may be rational, since the change of basis divides
    by D = 1 - 2*gamma.  Each diagram adds to every layer of its stratum its
    D-scaled coordinate, integral in Z[phi]: 1 for P and 1 - gamma for B.  Each
    nonzero sibling key is then divided by its D once; on the form and action
    paths the glued factor carries D^2 or D, so there it is exact.
    """
    _arg(x, (AlgebraElement,), "expand_in_cell_basis needs an AlgebraElement")
    scaled: dict = {}
    for d, coeff in x.items():
        for label in _stratum(d.m, d.k):
            # a bullet needs 0 < 2k < m, so a bulleted diagram lies on a sibling stratum
            c = coeff * _BULLET_WEIGHTS[label.kind] if d.bullet else coeff
            key = (label, d.north, d.south)
            prev = scaled.get(key)
            scaled[key] = c if prev is None else prev + c
    return {
        key: c._over(_D[key[0].kind]) if key[0].kind in _SIBLINGS else c
        for key, c in scaled.items()
        if c._terms
    }


def combine_cell_terms(m: int, coefficients: dict) -> AlgebraElement:
    """Re-sum a cell-basis coefficient map into an algebra element."""
    _arg(coefficients, (dict,), "combine_cell_terms needs a dict of cell coefficients")
    total = AlgebraElement.zero(m)
    for key, c in coefficients.items():
        if type(key) is not tuple or len(key) != 3 or LaurentPoly._coerce(c) is None:
            raise ValueError(f"combine_cell_terms needs (label, half, half) keys and scalars, got {key!r}: {c!r}")
        total = total + cell_element(*key).scale(c)
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
                    if quot is None:
                        raise ArithmeticError("fraction-free elimination left a remainder")
                    a[i][j] = quot
            prev = a[p][p]
        result = a[n - 1][n - 1]
        return -result if sign < 0 else result

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.rows)

    def __repr__(self) -> str:
        return f"<RingMatrix {self.n_rows}x{self.n_cols}>"

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.rows]


def _upper_expansion(product: AlgebraElement, k: int) -> dict:
    """The cell expansion of a product's terms with at most k caps; lower terms, whose division by D the
    glued factor need not make exact, are dropped unchecked."""
    return expand_in_cell_basis(AlgebraElement._from_checked(product.m, {d: c for d, c in product._terms.items() if d.k <= k}))


def _project(expansion: dict, label: CellLabel, index: dict, T, what: str) -> list:
    """The coefficients of C(S, T), S in index order, in a cell expansion modulo lower layers.

    The sibling layer (same cap count, other kind) may keep its share at T;
    any other term raises IndependenceViolation.  ``what`` names the
    computation in the message.
    """
    col = [_ZERO] * len(index)
    for (mu, sp, tp), c in expansion.items():
        if mu != label and mu.k == label.k and tp == T:
            continue
        if mu == label and tp == T and sp in index:
            col[index[sp]] = c
        else:
            raise IndependenceViolation(
                f"{what} on layer {label} leaks into layer {mu} at ({sp}, {tp})"
            )
    return col


def cell_action_matrix(a: AlgebraElement, label: CellLabel, *, check_all_T: bool = True) -> RingMatrix:
    """The matrix of an element acting on a cell layer.

    Entry (i, j) is the coefficient of the i-th tableau in a * C(S_j, T)
    modulo lower layers: that in a * D P(S_j, T), whose glued factor carries
    D, as P = C_plain / D_plain + C_bullet / D_bullet.  On plain and
    bullet layers the bullet rule is checked at the first south tableau: the
    layer's part of a * B(S, T) must be (1 - gamma) times that of
    a * P(S, T), which fails exactly when the action leaks between the
    sibling layers.  Unless disabled, the columns are recomputed for every
    other T to confirm they do not depend on that choice.
    """
    if type(a) is not AlgebraElement or type(label) is not CellLabel:
        raise ValueError(f"cell_action_matrix needs an AlgebraElement and a CellLabel, got {a!r} and {label!r}")
    _arg(check_all_T, (bool,), "check_all_T must be a bool")
    tabs = tableaux(label, a.m - 1)
    index = {h: i for i, h in enumerate(tabs)}
    scale = _D[label.kind]

    def columns(T, bullet=False):
        return [_project(_upper_expansion(a * _diagram(S, T, bullet, scale), label.k), label, index, T, "action") for S in tabs]

    base = columns(tabs[0])
    if label.kind in _BULLET_WEIGHTS:
        ratio = _BULLET_WEIGHTS[label.kind]
        if columns(tabs[0], bullet=True) != [[c * ratio for c in col] for col in base]:
            raise IndependenceViolation(f"action on layer {label} breaks the bullet rule at {tabs[0]}")
    if check_all_T:
        for T in tabs[1:]:
            if columns(T) != base:
                raise IndependenceViolation(f"action coefficients on layer {label} depend on the south tableau")
    return RingMatrix(list(zip(*base)))


def gram_matrix(label: CellLabel, n: int, *, forms: dict | None = None) -> RingMatrix:
    """The bilinear form on a cell layer.

    Entry (d1, d2) is the coefficient of C(e1, e2) in C(e1, d1) * C(d2, e2)
    modulo lower layers, for a fixed frame pair (e1, e2).  The sibling layers'
    cross terms vanish there, so it is read off the plain product P(e1, d1) *
    D^2 P(d2, e2), whose glued factor carries the D^2.  The matrix is recomputed
    against other frame pairs -- all of them for n <= 4, else FRAME_CHECKS
    evenly spaced ones -- to confirm the frame does not matter.

    Sibling layers read their forms off the same plain products, so every
    call computes its label's whole stratum; a caller's ``forms`` dict carries
    the siblings' finished forms to their later calls, which take them out.
    """
    tableaux(label, n)  # the label must lie in the rank-n poset
    forms = {} if forms is None else _arg(forms, (dict,), "gram_matrix needs a dict of forms")
    if (label, n) not in forms:
        forms.update(((layer, n), f) for layer, f in _stratum_forms(label, n).items())
    return _arg(forms.pop((label, n)), (RingMatrix,), f"gram_matrix's forms must hold a RingMatrix at {label}")


def _stratum_forms(label: CellLabel, n: int) -> dict:
    """The form of each layer in label's stratum; raises label's IndependenceViolation where it is found.

    Each frame pair's plain products are glued and expanded once, and each
    layer still passing projects them all; the first frame's entries are the
    base.  A sibling that fails is left out, so its own call recomputes the
    stratum and raises its fault.
    """
    tabs = tableaux(label, n)
    pairs = [(e1, e2) for e1 in tabs for e2 in tabs]
    others = pairs[1:]
    if n > 4 and len(others) > FRAME_CHECKS:
        others = others[:: len(others) // FRAME_CHECKS][:FRAME_CHECKS]
    done, layers = {}, _stratum(n + 1, label.k)
    scale = _D[label.kind] ** 2  # the same on both siblings, as D_bullet = -D_plain
    for e1, e2 in pairs[:1] + others:
        left, right = [_diagram(e1, d) for d in tabs], [_diagram(d, e2, coeff=scale) for d in tabs]
        expansions = [_upper_expansion(x * y, label.k) for x in left for y in right]
        for layer in layers:
            try:
                entries = [_project(e, layer, {e1: 0}, e2, "form")[0] for e in expansions]
                if done.setdefault(layer, entries) != entries:
                    raise IndependenceViolation(f"form entries on layer {layer} depend on the frame pair")
            except IndependenceViolation:
                if layer == label:
                    raise
                done.pop(layer, None)
        layers = list(done)
    t = len(tabs)
    return {layer: RingMatrix([entries[i : i + t] for i in range(0, t * t, t)]) for layer, entries in done.items()}


def gram_det(form: RingMatrix) -> LaurentPoly:
    """The determinant of a form, in v, taken by one Bareiss in delta = [2].

    Raises ValueError if an entry is not fixed by v -> 1/v.
    """
    _arg(form, (RingMatrix,), "gram_det needs a RingMatrix")
    return from_delta(RingMatrix([[to_delta(g) for g in row] for row in form.rows]).det())


def _action_problems(n: int, labels, *, check_all_T: bool) -> list:
    """The IndependenceViolation, if any, of cell_action_matrix for each U_i on each layer."""
    problems = []
    for label in labels:
        for i in range(1, n + 1):
            u = AlgebraElement.from_diagram(generator_U(i, n + 1))
            try:
                cell_action_matrix(u, label, check_all_T=check_all_T)
            except IndependenceViolation as exc:
                problems.append(f"U{i}: {exc}")
    return problems


def verify_cellular_axioms(n: int) -> list:
    """Check the three cell axioms at rank n; [] means all hold.

    Axiom 1 (basis): the cell elements are pairwise distinct, there are
    exactly as many as basis diagrams, and expanding every basis diagram in
    the cell basis and re-summing returns the diagram.  Axiom 2: the flip
    anti-automorphism swaps the two tableaux of every cell element.  Axiom 3:
    every generator acts on every layer with coefficients independent of the
    south tableau, and without leaks between sibling layers (the bullet rule).
    """
    problems = []
    labels = lambda_poset(n)
    m = n + 1
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
    return problems + _action_problems(n, labels, check_all_T=True)


def semisimplicity_check(n: int) -> list:
    """Nondegeneracy and near-orthogonality of every layer's form; [] means pass.

    For each layer the form matrix must be symmetric, and every entry must be
    fixed by v -> 1/v, so a polynomial in delta = [2], of degree at most k.
    Its delta^k coefficient must vanish off the diagonal and equal D = 1 -
    2*gamma1 (plain), 1 - 2*gamma2 (bullet) or 1 (zero and middle layers,
    whose cell elements carry no gamma) on it.  The delta form's own Bareiss
    determinant must lead with D^dim * delta^(k * dim); every verdict is read
    in delta, and gram_det, the delta -> v step, serves only ``tlh gram``.
    Plain products cannot see a leak between sibling layers, so every U_i must
    also pass the bullet rule of cell_action_matrix on each plain and bullet layer.
    """
    siblings = [label for label in lambda_poset(n) if label.kind in _SIBLINGS]
    problems, forms = _action_problems(n, siblings, check_all_T=False), {}
    for label in lambda_poset(n):
        tabs = tableaux(label, n)
        try:
            form = gram_matrix(label, n, forms=forms)
        except IndependenceViolation as exc:
            problems.append(f"layer {label}: {exc}")
            continue
        if not form.is_symmetric():
            problems.append(f"layer {label}: form matrix is not symmetric")
        try:
            entries = RingMatrix([[to_delta(g) for g in row] for row in form.rows])
        except ValueError as exc:
            problems.append(f"layer {label}: {exc}")
            continue
        expected = _D[label.kind]
        for i, (d1, row) in enumerate(zip(tabs, entries.rows)):
            for j, (d2, g) in enumerate(zip(tabs, row)):
                if not g.is_zero() and g.max_exp > label.k:
                    problems.append(f"layer {label}: <{d1}, {d2}> exceeds degree {label.k} in delta")
                top = g.coefficient(label.k)
                if i == j and top != expected:
                    problems.append(f"layer {label}: diagonal constant at {d1} is {top}, not {expected}")
                if i != j and not top.is_zero():
                    problems.append(f"layer {label}: off-diagonal constant at ({d1}, {d2}) is {top}")
        det = entries.det()
        if det.is_zero():
            problems.append(f"layer {label}: form determinant vanishes")
            continue
        top, lead = det.max_exp, det.coefficient(det.max_exp)
        if (top, lead) != (label.k * len(tabs), expected ** len(tabs)):
            problems.append(
                f"layer {label}: determinant's top term is {lead} at delta^{top},"
                f" not {expected ** len(tabs)} at delta^{label.k * len(tabs)}"
            )
    return problems


def _restricted_blocks(label: CellLabel, n: int, problems: list) -> list:
    """A layer's new basis, placed by what each tableau S does at its east point.

    Level 0: the east point is free, and the image is S on n nodes.  Level 1:
    it is capped and S without that cap is admissible.  Level 2: otherwise;
    the image must be the figure four, and it spans the trivial top.  An
    image's factors are the layers of its stratum one rank down of the
    layer's own kind, or the whole stratum if none has it.  With one factor S
    is kept as a unit vector; with two (the middle layer) the plain and
    decorated east caps S, S' over one image become C_S' - gamma C_S for each
    sibling, with the coordinates of P and of B on each C as the dual
    functionals.  Returns (level, factor, pairs) blocks in level order, each
    in its factor's tableau order.
    """
    m = n + 1
    over: dict = {}  # (level, image caps) -> (image, [(east decoration, tableau index)])
    for idx, S in enumerate(tableaux(label, n)):
        east = next((p for p in S.pairs if p[1] == m), None)
        image = HalfDiagram(n, tuple(p for p in S.pairs if p[1] != m))
        if east and east[2] and S.free_points:
            problems.append(f"decorated east cap under propagating edges in {S}")
        level = 0 if east is None else 1 if image.admissible() else 2
        if level == 2:
            if image != HalfDiagram.figure_four(n, label.k - 1):
                problems.append(f"unexpected inadmissible east-capped image {image}")
            image = HalfDiagram(n)
        over.setdefault((level, image.pairs), (image, []))[1].append((east[2] if east else 0, idx))
    tops = len(over.get((2, ()), (None, ()))[1])  # level 2 keeps only the empty face
    if tops != (1 if label.k >= 2 else 0):
        problems.append(f"{tops} trivial-top elements instead of {1 if label.k >= 2 else 0}")
    blocks: dict = {}
    for (level, _), (image, group) in sorted(over.items()):
        stratum = _stratum(n, image.k)
        factors = [mu for mu in stratum if mu.kind == label.kind] or stratum
        group.sort()
        for factor in factors:
            if len(factors) == 1:
                pairs = [({i: G_ONE}, {i: G_ONE}) for _, i in group]
            else:
                (_, s), (_, p) = group
                d = _D[factor.kind]  # P has coordinate 1/D on C, B (1 - gamma)/D
                pairs = [({s: -_SIBLINGS[factor.kind], p: G_ONE}, {s: G_ONE / d, p: _BULLET_WEIGHTS[factor.kind] / d})]
            blocks.setdefault((level, factor), []).extend(pairs)
    return [(level, factor, pairs) for (level, factor), pairs in blocks.items()]


def _generator_action(i: int, m: int, label: CellLabel, actions: dict) -> RingMatrix:
    """U_i's action on a layer of the m-strand algebra, memoized in ``actions``."""
    key = (i, m, label)
    if key not in actions:
        u = AlgebraElement.from_diagram(generator_U(i, m))
        actions[key] = cell_action_matrix(u, label, check_all_T=False)
    return actions[key]


def _check_restriction(label: CellLabel, n: int, blocks: list, problems: list, actions: dict) -> list:
    """Check a layer's new basis against every U_i, i < n; returns the report's blocks.

    ``blocks`` lists (level, factor, pairs) in level order: a factor label one
    rank down and its (vector, dual functional) pairs, both sparse maps from
    tableau index to scalar, and there must be one pair per tableau.  For
    M = dual . R . vectors, with R the action of U_i on the layer, an entry
    taking a vector of one level to a later level, or to another block of
    its own level, is a problem, and so is a diagonal block that differs
    from U_i's action on the factor layer.  A generator whose action breaks
    the cell axioms is reported as a problem, and the check goes on with the
    next one.  ``actions`` memoizes the generator actions of both ranks.
    """
    m = n + 1
    tabs = tableaux(label, n)
    basis = [(lvl, b, pair) for b, (lvl, _, pairs) in enumerate(blocks) for pair in pairs]
    if len(basis) != len(tabs):
        problems.append(f"new basis has {len(basis)} vectors for a layer of dimension {len(tabs)}")

    def coordinate(R, dual, vector):
        terms = (R.entry(r, c) * (x * y) for r, x in dual.items() for c, y in vector.items())
        return sum(terms, LaurentPoly.zero())

    for i in range(1, n):
        try:
            R = _generator_action(i, m, label, actions)
            M = RingMatrix([[coordinate(R, dual, vec) for *_, (vec, _) in basis] for *_, (_, dual) in basis])
            for a, (row_lvl, row_block, _) in enumerate(basis):
                for b, (col_lvl, col_block, _) in enumerate(basis):
                    outside = row_lvl > col_lvl or (row_lvl == col_lvl and row_block != col_block)
                    if outside and not M.entry(a, b).is_zero():
                        problems.append(f"U{i}: nonzero entry outside the diagonal blocks at ({a}, {b})")
            start = 0
            for _, factor, pairs in blocks:
                span = range(start, start + len(pairs))
                if M.submatrix(span, span) != _generator_action(i, m - 1, factor, actions):
                    problems.append(f"U{i} on layer {factor}: diagonal block differs from the factor action")
                start += len(pairs)
        except IndependenceViolation as exc:
            problems.append(f"U{i}: {exc}")
    return [{"factor": str(factor), "dim": len(pairs)} for _, factor, pairs in blocks]


def branching_report(label: CellLabel, n: int) -> dict:
    """How a cell layer decomposes when the east strand is dropped.

    One east-point rule builds a new basis of the layer as levels of blocks,
    each matched to a factor layer one rank down: east-free tableaux, then
    east caps with an admissible image, then the trivial top.  On plain,
    bullet and zero layers the basis is the tableaux reordered; on the
    middle layer each plain east cap is paired with its decorated partner.
    Every subalgebra generator must act block-triangularly on it, with no
    entry into a later level or between blocks of one level, and each
    diagonal block must equal the action on its factor layer.  Returns the
    factors, block dimensions and any discrepancies.
    """
    return _branching_report(label, n, {})


def _branching_report(label: CellLabel, n: int, actions: dict) -> dict:
    """branching_report with a memo of generator actions shared across layers."""
    if _arg(n, (int,), "rank must be an integer") < 3:
        raise ValueError(f"branching needs rank at least 3, got {n}")
    problems: list = []
    blocks = _restricted_blocks(label, n, problems)
    return {
        "label": str(label),
        "dim": len(tableaux(label, n)),
        "blocks": _check_restriction(label, n, blocks, problems, actions),
        "problems": problems,
    }


def verify_branching(n: int) -> list:
    """Check every layer's branching at rank n, one basis vector per tableau; [] means all hold."""
    problems, actions = [], {}
    for label in lambda_poset(n):
        report = _branching_report(label, n, actions)
        problems += [f"layer {label}: {p}" for p in report["problems"]]
    return problems
