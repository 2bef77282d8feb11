"""Tests for the cell structure: labels, cell basis, action and form matrices."""

import functools
import json
import pathlib
import random
from fractions import Fraction

import pytest

import tlh.algebra
import tlh.cellular
import tlh.cli
import tlh.ring
from tlh.algebra import AlgebraElement, special_elements
from tlh.cellular import (
    FRAME_CHECKS,
    CellLabel,
    IndependenceViolation,
    RingMatrix,
    branching_report,
    cell_action_matrix,
    cell_element,
    combine_cell_terms,
    expand_in_cell_basis,
    gram_det,
    gram_matrix,
    lambda_poset,
    semisimplicity_check,
    tableaux,
    verify_branching,
    verify_cellular_axioms,
    _restricted_blocks,
    _stratum,
)
from tlh.diagram import Diagram, HalfDiagram, enumerate_diagrams, enumerate_half, generator_U
from tlh.ring import GAMMA1, GAMMA2, G_ONE, G_ZERO, GoldenScalar, LaurentPoly
from tlh.tangle import DecoratedTangle

#: 1 / (gamma2 - gamma1), and the sibling table as literal values: for each
#: sibling kind, gamma in its cell elements C = B - gamma*P, and the
#: coordinates of P and of B on that C.
INV_GAMMA_GAP = GoldenScalar(Fraction(1, 5), Fraction(-2, 5))
SIBLINGS = {
    "plain": (GoldenScalar(0, 1), INV_GAMMA_GAP, GoldenScalar(Fraction(3, 5), Fraction(-1, 5))),
    "bullet": (GoldenScalar(1, -1), -INV_GAMMA_GAP, GoldenScalar(Fraction(2, 5), Fraction(1, 5))),
}

#: gram_matrix, computed once per layer for the tests that only read forms.
cached_form = functools.cache(gram_matrix)

H_STAR = HalfDiagram(3, ((1, 2, 1),))
H_PLAIN = HalfDiagram(3, ((2, 3, 0),))


def test_poset_is_frozen():
    assert lambda_poset(2) == (CellLabel("zero"), CellLabel("plain", 1), CellLabel("bullet", 1))
    assert lambda_poset(3) == lambda_poset(2) + (CellLabel("middle", 2),)
    assert [str(label) for label in lambda_poset(4)] == ["0", "1", "1b", "2", "2b"]
    assert [str(label) for label in lambda_poset(5)] == ["0", "1", "1b", "2", "2b", "mid"]
    for rank in (1, 0, -3):
        with pytest.raises(ValueError, match=f"^the cell poset needs rank at least 2, got {rank}$"):
            lambda_poset(rank)


@pytest.mark.parametrize("rank", [3.0, True, "3", None, Fraction(3), [3]])
def test_a_non_int_rank_is_rejected(rank):
    lambda_poset(3)  # cached first: an equal rank of another type must not read the cache
    layer = CellLabel("plain", 1)
    for call in (
        lambda_poset,
        semisimplicity_check,
        lambda n: gram_matrix(layer, n),
        lambda n: tableaux(layer, n),
        lambda n: CellLabel.parse("1", n),
    ):
        with pytest.raises(ValueError, match="^rank must be an integer"):
            call(rank)


@pytest.mark.parametrize("kind, k", [("plain", 1.0), ("plain", True), ("bullet", "1"), ("zero", False), ("middle", None)])
def test_label_cap_count_must_be_an_int(kind, k):
    with pytest.raises(ValueError, match="cap count must be an integer"):
        CellLabel(kind, k)


@pytest.mark.parametrize(
    "args, message",
    [(("nope",), "^unknown label kind 'nope'$"), (("zero", 1), "^label kind 'zero' cannot have cap count 1$")],
)
def test_label_rejects_an_unknown_kind_and_a_cap_count_off_its_kind(args, message):
    with pytest.raises(ValueError, match=message):
        CellLabel(*args)


def test_label_parsing_and_order():
    for n in (3, 4, 7):
        for label in lambda_poset(n):
            assert CellLabel.parse(str(label), n) == label
    with pytest.raises(ValueError):
        CellLabel.parse("mid", 4)
    with pytest.raises(ValueError):
        CellLabel.parse("3", 4)
    with pytest.raises(ValueError):
        CellLabel.parse("0b", 4)
    # the hash is the frozen dataclass's hash of the fields, and equal labels share it
    for label in lambda_poset(7):
        twin = CellLabel(label.kind, label.k)
        assert twin == label and hash(twin) == hash(label) == hash((label.kind, label.k))
    assert len({hash(label) for label in lambda_poset(7)}) == len(lambda_poset(7))
    assert CellLabel("plain", 2).is_below(CellLabel("plain", 1))
    assert CellLabel("middle", 2).is_below(CellLabel("zero"))
    assert not CellLabel("plain", 1).is_below(CellLabel("bullet", 1))


def test_tableaux_counts():
    from math import comb

    for n in range(2, 7):
        for label in lambda_poset(n):
            expected = 1 if label.k == 0 else comb(n + 1, label.k) - 1
            assert len(tableaux(label, n)) == expected
    with pytest.raises(ValueError):
        tableaux(CellLabel("plain", 3), 4)


def test_cell_element_frozen_values():
    c = cell_element(CellLabel("plain", 1), H_STAR, H_PLAIN)
    assert c == AlgebraElement(
        3,
        {
            Diagram(H_STAR, H_PLAIN, bullet=True): G_ONE,
            Diagram(H_STAR, H_PLAIN, bullet=False): -GAMMA1,
        },
    )
    cb = cell_element(CellLabel("bullet", 1), H_STAR, H_PLAIN)
    assert cb.coefficient(Diagram(H_STAR, H_PLAIN, bullet=False)) == LaurentPoly.const(-GAMMA2)
    empty = HalfDiagram(3, ())
    assert cell_element(CellLabel("zero"), empty, empty) == AlgebraElement.one(3)
    with pytest.raises(ValueError):
        cell_element(CellLabel("plain", 1), H_STAR, HalfDiagram(4, ((1, 2, 1),)))
    with pytest.raises(ValueError):
        cell_element(CellLabel("plain", 2), H_STAR, H_PLAIN)
    with pytest.raises(ValueError):
        cell_element(CellLabel("middle", 1), H_STAR, H_PLAIN)


@pytest.mark.parametrize("args", [("x", H_STAR, H_STAR), (CellLabel("plain", 1), H_STAR, None), (CellLabel("zero"), (), ())])
def test_cell_element_rejects_arguments_of_other_types(args):
    with pytest.raises(ValueError, match="^a cell element needs a CellLabel and two HalfDiagrams"):
        cell_element(*args)


@pytest.mark.parametrize("x", ["x", None, generator_U(1, 3)])
def test_cell_expansion_rejects_an_argument_that_is_not_an_element(x):
    with pytest.raises(ValueError, match="^expand_in_cell_basis needs an AlgebraElement"):
        expand_in_cell_basis(x)


@pytest.mark.parametrize("coefficients", ["x", None, [((CellLabel("zero"), HalfDiagram(3), HalfDiagram(3)), 1)]])
def test_combine_cell_terms_rejects_coefficients_that_are_not_a_dict(coefficients):
    with pytest.raises(ValueError, match="^combine_cell_terms needs a dict of cell coefficients"):
        combine_cell_terms(3, coefficients)


@pytest.mark.parametrize(
    "coefficients",
    [{5: 1}, {(CellLabel("zero"), HalfDiagram(3)): 1}, {(CellLabel("zero"), HalfDiagram(3), HalfDiagram(3)): "x"}],
)
def test_combine_cell_terms_rejects_a_key_that_is_not_a_triple_or_a_coefficient_that_is_no_scalar(coefficients):
    with pytest.raises(ValueError, match="^combine_cell_terms needs \\(label, half, half\\) keys and scalars"):
        combine_cell_terms(3, coefficients)
    with pytest.raises(ValueError, match="^a cell element needs a CellLabel and two HalfDiagrams"):
        combine_cell_terms(3, {(5, HalfDiagram(3), HalfDiagram(3)): 1})  # a triple's entries are the cell element's


def test_cell_expansion_is_dual_to_cell_element():
    for n in (2, 3):
        for label in lambda_poset(n):
            tabs = tableaux(label, n)
            for S in tabs:
                for T in tabs:
                    expansion = expand_in_cell_basis(cell_element(label, S, T))
                    assert expansion == {(label, S, T): LaurentPoly.one()}


def test_expansion_frozen_coefficients():
    u1 = AlgebraElement.from_diagram(generator_U(1, 3))
    assert expand_in_cell_basis(u1) == {
        (CellLabel("plain", 1), H_STAR, H_STAR): LaurentPoly.const(INV_GAMMA_GAP),
        (CellLabel("bullet", 1), H_STAR, H_STAR): LaurentPoly.const(-INV_GAMMA_GAP),
    }
    empty = HalfDiagram(3, ())
    assert expand_in_cell_basis(AlgebraElement.one(3)) == {
        (CellLabel("zero"), empty, empty): LaurentPoly.one()
    }


def test_expansion_round_trips_on_every_diagram():
    for m in (3, 4, 5):
        for d in enumerate_diagrams(m):
            x = AlgebraElement.from_diagram(d)
            assert combine_cell_terms(m, expand_in_cell_basis(x)) == x


def expand_reference(x):
    """The earlier expand_in_cell_basis: each term's own rational coordinates, summed per key."""
    out: dict = {}
    for d, coeff in x.items():
        for label in _stratum(d.m, d.k):
            if label.kind in SIBLINGS:
                _, on_p, on_b = SIBLINGS[label.kind]
                c = coeff * (on_b if d.bullet else on_p)
            else:
                c = coeff
            key = (label, d.north, d.south)
            out[key] = out.get(key, LaurentPoly.zero()) + c
    return {key: c for key, c in out.items() if not c.is_zero()}


def same_expansion(x):
    """expand_in_cell_basis equals the reference, key order included."""
    return list(expand_in_cell_basis(x).items()) == list(expand_reference(x).items())


def test_expansion_matches_the_reference_on_every_diagram_and_cell_element():
    for m in (3, 4, 5):
        for d in enumerate_diagrams(m):
            assert same_expansion(AlgebraElement.from_diagram(d))
        for label in lambda_poset(m - 1):
            tabs = tableaux(label, m - 1)
            for S in tabs:
                for T in tabs:
                    assert same_expansion(cell_element(label, S, T))


def test_expansion_matches_the_reference_on_random_elements():
    rng = random.Random(1717)
    coeffs = [
        LaurentPoly.one(),
        LaurentPoly.delta(),
        LaurentPoly({-1: GoldenScalar(2, -3), 2: -1}),
        LaurentPoly.const(GoldenScalar(Fraction(1, 3), 2)),
        LaurentPoly({0: GoldenScalar(Fraction(-5, 2), Fraction(1, 5))}),
    ]
    cancelled = 0
    for m in (3, 4, 5):
        diagrams = enumerate_diagrams(m)
        siblings = [label for label in lambda_poset(m - 1) if label.kind in SIBLINGS]
        for _ in range(60):
            x = AlgebraElement.zero(m)
            for d in rng.sample(diagrams, rng.randint(1, 6)):  # mixed strata
                x = x + AlgebraElement.from_diagram(d).scale(rng.choice(coeffs))
            label = rng.choice(siblings)  # a P/B pair that cancels on the other sibling
            S, T = rng.choice(tableaux(label, m - 1)), rng.choice(tableaux(label, m - 1))
            x = x + cell_element(label, S, T).scale(rng.choice(coeffs))
            assert same_expansion(x)
            other = next(mu for mu in _stratum(m, label.k) if mu != label)
            cancelled += (other, S, T) not in expand_reference(x)
    assert cancelled > 0


def test_plain_diagram_splits_over_the_sibling_layers():
    # P(S, T) = C_plain(S, T) / D_plain + C_bullet(S, T) / D_bullet, D = 1 - 2*gamma
    d_plain, d_bullet = (G_ONE - 2 * GAMMA1).inverse(), (G_ONE - 2 * GAMMA2).inverse()
    for n in (2, 3, 4):
        for k in range(1, n // 2 + 1):
            plain, bullet = CellLabel("plain", k), CellLabel("bullet", k)
            tabs = tableaux(plain, n)
            for S in tabs:
                for T in tabs:
                    split = cell_element(plain, S, T).scale(d_plain) + cell_element(bullet, S, T).scale(d_bullet)
                    assert split == AlgebraElement.from_diagram(Diagram(S, T))


def test_layer_column_keeps_only_the_sibling_share_at_T():
    plain, bullet = CellLabel("plain", 1), CellLabel("bullet", 1)
    tabs = tableaux(plain, 2)
    index = {h: i for i, h in enumerate(tabs)}

    def column(product, label, index, T, what):  # a product's column, as cell_action_matrix reads it, unscaled
        return tlh.cellular._project(tlh.cellular._upper_expansion(product, label.k), label, index, T, what)

    sibling = cell_element(bullet, H_STAR, H_PLAIN)
    assert column(sibling, plain, index, H_PLAIN, "test") == [LaurentPoly.zero()] * 2
    with pytest.raises(IndependenceViolation, match="leaks into layer 1b"):
        column(sibling, plain, index, H_STAR, "test")
    own = cell_element(plain, H_PLAIN, H_STAR)
    assert column(own, plain, index, H_STAR, "test")[index[H_PLAIN]] == LaurentPoly.one()
    with pytest.raises(IndependenceViolation, match="leaks into layer 1 "):
        column(own, plain, {H_STAR: 0}, H_STAR, "test")
    empty = HalfDiagram(3, ())
    lower = AlgebraElement.from_diagram(Diagram(H_STAR, H_PLAIN))
    assert column(lower, CellLabel("zero"), {empty: 0}, empty, "test") == [LaurentPoly.zero()]


# The cell-element action and form, kept as oracles for the plain-diagram ones.


def _layer_column_reference(product, label, index, T, what):
    col = [LaurentPoly.zero()] * len(index)
    for (mu, sp, tp), c in expand_in_cell_basis(product).items():
        if mu.is_below(label):
            continue
        if mu == label and tp == T:
            col[index[sp]] = c
        else:
            raise IndependenceViolation(
                f"{what} on layer {label} leaks into layer {mu} at ({sp}, {tp})"
            )
    return col


def cell_action_matrix_reference(a, label, *, check_all_T=True):
    n = a.m - 1
    tabs = tableaux(label, n)
    index = {h: i for i, h in enumerate(tabs)}

    def columns(T):
        return [_layer_column_reference(a * cell_element(label, S, T), label, index, T, "action") for S in tabs]

    base = columns(tabs[0])
    if check_all_T:
        for T in tabs[1:]:
            if columns(T) != base:
                raise IndependenceViolation(
                    f"action coefficients on layer {label} depend on the south tableau"
                )
    size = len(tabs)
    return RingMatrix(tuple(tuple(base[j][i] for j in range(size)) for i in range(size)))


def gram_matrix_reference(label, n):
    tabs = tableaux(label, n)
    index = {h: i for i, h in enumerate(tabs)}

    def entries(e1, e2):
        right = [cell_element(label, d2, e2) for d2 in tabs]
        rows = []
        for d1 in tabs:
            left = cell_element(label, e1, d1)
            row = []
            for factor in right:
                col = _layer_column_reference(left * factor, label, index, e2, "form")
                stray = next((S for S, c in zip(tabs, col) if S != e1 and not c.is_zero()), None)
                if stray is not None:
                    raise IndependenceViolation(
                        f"form on layer {label} leaks into layer {label} at ({stray}, {e2})"
                    )
                row.append(col[index[e1]])
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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_matrix_matches_the_cell_element_reference(n):
    for label in lambda_poset(n):
        assert cached_form(label, n) == gram_matrix_reference(label, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_action_matrix_matches_the_cell_element_reference(n):
    m = n + 1
    elements = [AlgebraElement.from_diagram(generator_U(i, m)) for i in range(1, m)]
    elements += special_elements(m).values()
    for label in lambda_poset(n):
        for a in elements:
            assert cell_action_matrix(a, label) == cell_action_matrix_reference(a, label)


@pytest.mark.parametrize("a", ["x", None, generator_U(1, 3)])
def test_action_matrix_rejects_an_acting_argument_that_is_not_an_element(a):
    with pytest.raises(ValueError, match="^cell_action_matrix needs an AlgebraElement and a CellLabel"):
        cell_action_matrix(a, CellLabel("plain", 1))


def test_action_matrix_reports_columns_that_depend_on_the_south_tableau(monkeypatch):
    label = CellLabel("plain", 1)
    first = tableaux(label, 2)[0]
    original = tlh.cellular._project

    def project(expansion, layer, index, T, what):  # off the first south tableau, every coefficient gains one
        col = original(expansion, layer, index, T, what)
        return col if T == first else [c + 1 for c in col]

    monkeypatch.setattr(tlh.cellular, "_project", project)
    u1 = AlgebraElement.from_diagram(generator_U(1, 3))
    cell_action_matrix(u1, label, check_all_T=False)  # the first tableau alone sees nothing
    with pytest.raises(IndependenceViolation, match="^action coefficients on layer 1 depend on the south tableau$"):
        cell_action_matrix(u1, label)


def test_bullet_rule_sees_a_product_that_ignores_the_bullet(monkeypatch):
    original = tlh.algebra.multiply

    def unbulleted(x, y):  # drops the bullet of every bulleted right operand
        plain = AlgebraElement.zero(y.m)
        for d, c in y.items():
            plain = plain + AlgebraElement.from_diagram(Diagram(d.north, d.south)).scale(c)
        return original(x, plain)

    monkeypatch.setattr(tlh.algebra, "multiply", unbulleted)
    for problems in (verify_cellular_axioms(3), semisimplicity_check(3)):
        assert any("bullet rule" in p for p in problems)


def test_gram_matrix_glues_one_plain_pair_per_entry(monkeypatch):
    gluings = []
    original = DecoratedTangle.concat

    def counted(self, other):
        gluings.append(1)
        return original(self, other)

    monkeypatch.setattr(DecoratedTangle, "concat", counted)
    for label in lambda_poset(3):
        gram_matrix(label, 3)
    # t^2 entries for each of the t^2 frames: 1 + 2 * 81 + 625 (the cell elements took 1 274)
    assert len(gluings) == 788


def _count_gluings(monkeypatch) -> list:
    gluings, original = [], DecoratedTangle.concat

    def counted(self, other):
        gluings.append(1)
        return original(self, other)

    monkeypatch.setattr(DecoratedTangle, "concat", counted)
    return gluings


def test_sibling_layers_share_one_product_pass(monkeypatch):
    expected = [cached_form(label, 3) for label in lambda_poset(3)]
    gluings, forms = _count_gluings(monkeypatch), {}
    assert [gram_matrix(label, 3, forms=forms) for label in lambda_poset(3)] == expected
    assert forms == {}  # each sibling took its form out
    # 1 + 81 + 625: the plain products of layer 1 serve layer 1b too
    assert len(gluings) == 707


def test_the_sibling_called_first_gets_the_same_form(monkeypatch):
    gluings, forms = _count_gluings(monkeypatch), {}
    plain, bullet = CellLabel("plain", 1), CellLabel("bullet", 1)
    assert gram_matrix(bullet, 3, forms=forms) == cached_form(bullet, 3)
    assert list(forms) == [(plain, 3)]
    assert gram_matrix(plain, 3, forms=forms) == cached_form(plain, 3)
    assert forms == {} and len(gluings) == 81


def test_gram_matrix_rejects_a_forms_entry_that_is_neither_a_form_nor_a_violation():
    zero = CellLabel("zero")
    for value in ("x", None, [[1]], IndependenceViolation):
        with pytest.raises(ValueError, match="gram_matrix's forms must hold a RingMatrix"):
            gram_matrix(zero, 2, forms={(zero, 2): value})


def test_gram_n4_glues_each_stratum_once(capsys, monkeypatch):
    gluings = _count_gluings(monkeypatch)
    assert tlh.cli.main(["gram", "--n", "4", "--format", "structured"]) == 0
    assert capsys.readouterr().out == (pathlib.Path(__file__).parent / "golden" / "gram_n4.jsonl").read_text()
    assert len(gluings) == 6818  # 13 635 with each sibling's products glued again


def _inject_sibling_stray(monkeypatch, kind: str, frame: bool):
    """Add a C(S, T) of layer ``kind`` 1 at rank 3 to every product of two one-cap diagrams.

    T is the product's south half, so the sibling layer may keep the term.
    With ``frame`` false, S is the second tableau: a leak on the layer at
    every frame pair.  With ``frame`` true, S is the product's north half
    and the term is added only where that is the second tableau: each entry
    of the layer grows by one at those frame pairs, which changes no other
    layer and leaks nowhere.
    """
    label = CellLabel(kind, 1)
    second = tableaux(label, 3)[1]
    original = tlh.algebra.multiply

    def with_stray(x, y):
        product = original(x, y)
        [left], [right] = x.items(), y.items()
        north, south = left[0].north, right[0].south
        if left[0].k == right[0].k == 1 and (not frame or north == second):
            product = product + cell_element(label, north if frame else second, south)
        return product

    monkeypatch.setattr(tlh.algebra, "multiply", with_stray)


#: tlh gram --n 3 --format structured, without and with the strays of _inject_sibling_stray.
GRAM_N3 = [
    {"dim": 1, "gram_det": [[0, 1, 0]], "kind": "gram", "label": "0", "verdict": "nondegenerate"},
    {"dim": 3, "gram_det": [[-3, 5, -10], [-1, -10, -5], [1, -10, -5], [3, 5, -10]],
     "kind": "gram", "label": "1", "verdict": "nondegenerate"},
    {"dim": 3, "gram_det": [[-3, -5, 10], [-1, -15, 5], [1, -15, 5], [3, -5, 10]],
     "kind": "gram", "label": "1b", "verdict": "nondegenerate"},
    {"dim": 5, "gram_det": [[-10, 1, 0], [-8, 6, 0], [-6, 16, 0], [-4, 26, 0], [-2, 31, 0], [0, 32, 0],
                            [2, 31, 0], [4, 26, 0], [6, 16, 0], [8, 6, 0], [10, 1, 0]],
     "kind": "gram", "label": "mid", "verdict": "nondegenerate"},
]
STRAY_FAILURES = {
    ("plain", False): "form on layer 1 leaks into layer 1 at (2-3, 1-2*)",
    ("bullet", False): "form on layer 1b leaks into layer 1b at (2-3, 1-2*)",
    ("plain", True): "form entries on layer 1 depend on the frame pair",
    ("bullet", True): "form entries on layer 1b depend on the frame pair",
}


def _gram_n3_records(capsys) -> tuple:
    code = tlh.cli.main(["gram", "--n", "3", "--format", "structured"])
    return code, [json.loads(line) for line in capsys.readouterr().out.splitlines()]


def test_gram_n3_records(capsys):
    assert _gram_n3_records(capsys) == (0, GRAM_N3)


@pytest.mark.parametrize("kind, frame", list(STRAY_FAILURES))
def test_a_fault_on_one_sibling_leaves_the_other_passing(capsys, monkeypatch, kind, frame):
    _inject_sibling_stray(monkeypatch, kind, frame)
    failed = str(CellLabel(kind, 1))
    fail = {"detail": STRAY_FAILURES[kind, frame], "kind": "gram", "label": failed, "verdict": "fail"}
    assert _gram_n3_records(capsys) == (1, [fail if r["label"] == failed else r for r in GRAM_N3])


@pytest.mark.parametrize("kind, frame", list(STRAY_FAILURES))
def test_semisimplicity_reports_a_fault_on_one_sibling(monkeypatch, kind, frame):
    _inject_sibling_stray(monkeypatch, kind, frame)
    label = str(CellLabel(kind, 1))
    rule = [f"U{i}: action on layer {label} breaks the bullet rule at 1-2*" for i in ((2,) if frame else (1, 2, 3))]
    assert semisimplicity_check(3) == rule + [f"layer {label}: {STRAY_FAILURES[kind, frame]}"]


@pytest.mark.parametrize("kind, frame", list(STRAY_FAILURES))
def test_a_single_layer_call_does_not_inherit_its_sibling_fault(capsys, monkeypatch, kind, frame):
    # a call on one layer computes its whole stratum, so the faulty sibling runs alongside it
    faulty = CellLabel(kind, 1)
    other = next(mu for mu in _stratum(4, 1) if mu != faulty)
    argv = ["gram", "--n", "3", "--lambda", str(other), "--format", "structured"]
    expected, clean = cached_form(other, 3), (tlh.cli.main(argv), capsys.readouterr().out)
    _inject_sibling_stray(monkeypatch, kind, frame)
    with pytest.raises(IndependenceViolation) as caught:
        gram_matrix(faulty, 3)
    assert str(caught.value) == STRAY_FAILURES[kind, frame]
    assert gram_matrix(other, 3) == expected
    assert clean[0] == 0 and (tlh.cli.main(argv), capsys.readouterr().out) == clean


def test_gram_det_builds_no_rational_scalar(monkeypatch):
    # every Bareiss quotient lies in Z[phi][delta], so the n = 4 determinants never leave the integers;
    # a coordinate becomes a Fraction only in a division (_quotient), and a scalar only in the public
    # constructor, so both are counted
    forms = [cached_form(label, 4) for label in lambda_poset(4)]
    original, quotient = GoldenScalar.__post_init__, tlh.ring._quotient
    built: dict = {"public": [], "quotient": []}

    def counted(scalar):
        original(scalar)
        built["public"].append(type(scalar.a) is int and type(scalar.b) is int)

    def counted_quotient(c, n):
        q = quotient(c, n)
        built["quotient"].append(type(q) is int)
        return q

    monkeypatch.setattr(GoldenScalar, "__post_init__", counted)
    monkeypatch.setattr(tlh.ring, "_quotient", counted_quotient)
    dets = [gram_det(form) for form in forms]
    assert all(built.values()) and all(all(flags) for flags in built.values())
    assert all(type(a) is int and type(b) is int for det in dets for a, b in det._terms.values())


def _gram_n4():
    assert tlh.cli.main(["gram", "--n", "4"]) == 0


def _actions_n3():
    for label in lambda_poset(3):
        for i in (1, 2, 3):
            cell_action_matrix(AlgebraElement.from_diagram(generator_U(i, 4)), label)


def _semisimplicity_n4():
    assert semisimplicity_check(4) == []


@pytest.mark.parametrize(
    "run", [_gram_n4, _actions_n3, _semisimplicity_n4], ids=["gram-n4", "actions-n3", "semisimplicity-n4"]
)
def test_the_form_and_action_paths_divide_only_in_the_integers(monkeypatch, capsys, run):
    # each product is scaled by D^2 (form) or D (action) before its cell expansion divides by D, so every
    # coordinate quotient is exact
    quotient, made = tlh.ring._quotient, []

    def counted(c, n):
        q = quotient(c, n)
        made.append(type(q))
        return q

    monkeypatch.setattr(tlh.ring, "_quotient", counted)
    run()
    capsys.readouterr()
    assert made and set(made) == {int}


def test_gram_n4_multiplies_no_coefficient_by_one(monkeypatch, capsys):
    # the glued factor carries the scale D^2, so no kept product term is multiplied by it again, and the
    # zero and middle strata, where D^2 = 1, make no scaling product at all
    one, product, running, operands = LaurentPoly.one(), LaurentPoly.__mul__, [], []

    def counted(a, b):
        if running:
            operands.append((a, LaurentPoly._coerce(b)))
        return product(a, b)

    def inside(*args, **kwargs):
        running.append(1)
        try:
            return gram_matrix(*args, **kwargs)
        finally:
            running.pop()

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    monkeypatch.setattr(tlh.cli, "gram_matrix", inside)
    assert tlh.cli.main(["gram", "--n", "4"]) == 0
    capsys.readouterr()
    assert operands and [pair for pair in operands if one in pair] == []


def test_gram_matrix_expands_no_term_below_the_layer(monkeypatch):
    expand, multiply = tlh.cellular.expand_in_cell_basis, tlh.algebra.multiply
    expanded, products = [], []

    def spy(x):
        expanded.extend(d.k for d, _ in x.items())
        return expand(x)

    def recorded(x, y):
        product = multiply(x, y)
        products.extend(d.k for d, _ in product.items())
        return product

    monkeypatch.setattr(tlh.cellular, "expand_in_cell_basis", spy)
    monkeypatch.setattr(tlh.algebra, "multiply", recorded)
    lower_terms = 0
    for label in lambda_poset(3):
        expanded.clear()
        products.clear()
        assert gram_matrix(label, 3) == cached_form(label, 3)
        assert expanded and max(expanded) <= label.k
        lower_terms += sum(k > label.k for k in products)
    assert lower_terms > 0  # the products do have lower terms, and none reach the expansion


@pytest.mark.parametrize("where, raises", [("higher", True), ("same layer", True), ("lower", False)])
def test_gram_matrix_sees_an_injected_term_on_a_layer_not_below(monkeypatch, where, raises):
    label = CellLabel("plain", 1)
    tabs, middle = tableaux(label, 3), tableaux(CellLabel("middle", 2), 3)
    stray = {
        "higher": Diagram(HalfDiagram(4), HalfDiagram(4)),
        "same layer": Diagram(tabs[1], tabs[1]),  # the frame pair is (tabs[0], tabs[0])
        "lower": Diagram(middle[0], middle[0]),
    }[where]
    original = tlh.algebra.multiply
    monkeypatch.setattr(tlh.algebra, "multiply", lambda x, y: original(x, y) + AlgebraElement.from_diagram(stray))
    if raises:
        with pytest.raises(IndependenceViolation, match="form on layer 1 leaks into layer"):
            gram_matrix(label, 3)
    else:
        assert gram_matrix(label, 3) == cached_form(label, 3)


def test_action_matrix_frozen_n2():
    label = CellLabel("plain", 1)
    tabs = tableaux(label, 2)
    i_star, i_plain = tabs.index(H_STAR), tabs.index(H_PLAIN)
    delta = LaurentPoly.delta()
    gamma2 = LaurentPoly.const(GAMMA2)
    zero = LaurentPoly.zero()

    r1 = cell_action_matrix(AlgebraElement.from_diagram(generator_U(1, 3)), label)
    assert (r1.entry(i_star, i_star), r1.entry(i_star, i_plain)) == (delta, gamma2)
    assert (r1.entry(i_plain, i_star), r1.entry(i_plain, i_plain)) == (zero, zero)

    r2 = cell_action_matrix(AlgebraElement.from_diagram(generator_U(2, 3)), label)
    assert (r2.entry(i_star, i_star), r2.entry(i_star, i_plain)) == (zero, zero)
    assert (r2.entry(i_plain, i_star), r2.entry(i_plain, i_plain)) == (gamma2, delta)

    one = cell_action_matrix(AlgebraElement.one(3), label)
    assert one == RingMatrix(((1, 0), (0, 1)))

    at_zero = cell_action_matrix(AlgebraElement.from_diagram(generator_U(1, 3)), CellLabel("zero"))
    assert at_zero == RingMatrix(((0,),))


def test_action_matrix_check_flag_agrees():
    label = CellLabel("plain", 1)
    u = AlgebraElement.from_diagram(generator_U(2, 4))
    assert cell_action_matrix(u, label) == cell_action_matrix(u, label, check_all_T=False)


def test_ring_matrix_basics():
    m = RingMatrix(((1, 2), (3, 4)))
    assert (m.n_rows, m.n_cols) == (2, 2)
    assert m.entry(1, 0) == LaurentPoly.const(GoldenScalar(3))
    assert not m.is_symmetric()
    assert RingMatrix(((1, 5), (5, 2))).is_symmetric()
    assert m.submatrix((1,), (0, 1)) == RingMatrix(((3, 4),))
    with pytest.raises(ValueError):
        RingMatrix(((1, 2), (3,)))
    with pytest.raises(TypeError):
        RingMatrix((("x",),))
    with pytest.raises(ValueError):
        RingMatrix(((1, 2),)).det()


@pytest.mark.parametrize("form", ["x", None, [[LaurentPoly.one()]]])
def test_gram_det_rejects_an_argument_that_is_not_a_matrix(form):
    with pytest.raises(ValueError, match="^gram_det needs a RingMatrix"):
        gram_det(form)


def test_ring_matrix_det_frozen():
    delta = LaurentPoly.delta()
    assert RingMatrix(((delta,),)).det() == delta
    assert RingMatrix(((1, 2), (3, 4))).det() == LaurentPoly.const(GoldenScalar(-2))
    assert RingMatrix(((1, 2), (2, 4))).det().is_zero()
    assert RingMatrix(((0, 1, 0), (1, 0, 0), (0, 0, 1))).det() == -LaurentPoly.one()
    assert RingMatrix(((0, 1), (0, 0))).det().is_zero()
    assert RingMatrix(()).det() == LaurentPoly.one()


def _cofactor_det(rows):
    if not rows:
        return LaurentPoly.one()
    if len(rows) == 1:
        return rows[0][0]
    total = LaurentPoly.zero()
    for j, pivot in enumerate(rows[0]):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = pivot * _cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_ring_matrix_det_matches_cofactor_expansion():
    rng = random.Random(414)

    def poly():
        out = LaurentPoly.zero()
        for _ in range(rng.randint(0, 2)):
            coeff = GoldenScalar(rng.randint(-3, 3), rng.randint(-2, 2))
            out = out + LaurentPoly.v_pow(rng.randint(-2, 2)) * LaurentPoly.const(coeff)
        return out

    for _ in range(12):
        size = rng.randint(2, 4)
        rows = tuple(tuple(poly() for _ in range(size)) for _ in range(size))
        assert RingMatrix(rows).det() == _cofactor_det(rows)


def test_gram_matrix_frozen_n2():
    delta = LaurentPoly.delta()
    diag = delta * LaurentPoly.const(GoldenScalar(1, -2))
    off = LaurentPoly.const(GoldenScalar(3, -1))

    label = CellLabel("plain", 1)
    tabs = tableaux(label, 2)
    i_star, i_plain = tabs.index(H_STAR), tabs.index(H_PLAIN)
    form = gram_matrix(label, 2)
    assert form.entry(i_star, i_star) == diag
    assert form.entry(i_plain, i_plain) == diag
    assert form.entry(i_star, i_plain) == off
    assert form.entry(i_plain, i_star) == off
    five = LaurentPoly.const(GoldenScalar(5))
    assert form.det() == five * delta**2 - LaurentPoly.const(GoldenScalar(10, -5))

    bullet = gram_matrix(CellLabel("bullet", 1), 2)
    assert bullet.entry(i_star, i_star) == delta * LaurentPoly.const(GoldenScalar(-1, 2))
    assert bullet.det() == five * delta**2 - LaurentPoly.const(GoldenScalar(5, 5))


def test_gram_matrix_frozen_middle_n3():
    label = CellLabel("middle", 2)
    tabs = tableaux(label, 3)
    delta = LaurentPoly.delta()
    d0 = HalfDiagram(4, ((1, 2, 0), (3, 4, 0)))
    near = HalfDiagram(4, ((1, 2, 1), (3, 4, 0)))
    rotated = HalfDiagram(4, ((1, 4, 0), (2, 3, 0)))
    i0, i1, i2 = tabs.index(d0), tabs.index(near), tabs.index(rotated)
    form = gram_matrix(label, 3)
    assert form.entry(i0, i0) == delta**2
    assert form.entry(i0, i1).is_zero()
    assert form.entry(i0, i2) == delta
    assert form.is_symmetric()


# Determinants in delta = [2]: v-Bareiss and a point evaluation over Q(phi) are the oracles.


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gram_det_matches_bareiss_in_v(n):
    for label in lambda_poset(n):
        if label.kind == "middle" and n == 5:
            continue  # the 19x19 middle layer takes seconds in v
        form = cached_form(label, n)
        assert gram_det(form) == form.det()


def _at(p: LaurentPoly, v: int) -> GoldenScalar:
    """p evaluated at a rational v, in Q(phi)."""
    return sum((c * Fraction(v) ** e for e, c in p.items()), G_ZERO)


def _field_det(rows) -> GoldenScalar:
    """Determinant over Q(phi) by Gaussian elimination with Fractions."""
    a = [list(row) for row in rows]
    det = G_ONE
    for p in range(len(a)):
        pivot = next((i for i in range(p, len(a)) if a[i][p]), None)
        if pivot is None:
            return G_ZERO
        if pivot != p:
            a[p], a[pivot] = a[pivot], a[p]
            det = -det
        det = det * a[p][p]
        inv = a[p][p].inverse()
        for i in range(p + 1, len(a)):
            f = a[i][p] * inv
            a[i] = [x - f * y for x, y in zip(a[i], a[p])]
    return det


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gram_det_matches_point_evaluations(n):
    for label in lambda_poset(n):
        form = cached_form(label, n)
        det = gram_det(form)
        for v in (2, 3):
            assert _at(det, v) == _field_det([[_at(g, v) for g in row] for row in form.rows])


def _patched_forms(monkeypatch, text, change):
    """Make gram_matrix return layer ``text``'s form with change(i, j, entry) in place of each entry."""
    original = tlh.cellular.gram_matrix

    def patched(label, n, **options):
        form = original(label, n, **options)
        if str(label) != text:
            return form
        return RingMatrix([[change(i, j, g) for j, g in enumerate(row)] for i, row in enumerate(form.rows)])

    monkeypatch.setattr(tlh.cellular, "gram_matrix", patched)


def test_semisimplicity_reports_an_asymmetric_entry(monkeypatch):
    v = LaurentPoly.v_pow(1)
    _patched_forms(monkeypatch, "1", lambda i, j, g: g + v if i == j == 0 else g)
    problems = semisimplicity_check(2)
    assert len(problems) == 1
    assert problems[0].startswith("layer 1: ") and "not symmetric under v -> 1/v" in problems[0]


def test_semisimplicity_reports_an_asymmetric_form(monkeypatch):
    # a constant is fixed by v -> 1/v and lies below delta^1, so only the symmetry check sees it
    _patched_forms(monkeypatch, "1", lambda i, j, g: g + 1 if (i, j) == (0, 1) else g)
    assert semisimplicity_check(2) == ["layer 1: form matrix is not symmetric"]


def test_semisimplicity_reports_a_wrong_diagonal_constant(monkeypatch):
    delta = LaurentPoly.delta()
    _patched_forms(monkeypatch, "1b", lambda i, j, g: g + delta if i == j == 1 else g)
    assert semisimplicity_check(2) == [
        f"layer 1b: diagonal constant at {tableaux(CellLabel('bullet', 1), 2)[1]} is 2*phi, not -1 + 2*phi",
        "layer 1b: determinant's top term is 4 + 2*phi at delta^2, not 5 at delta^2",
    ]


def test_semisimplicity_reports_an_off_diagonal_constant_and_degree(monkeypatch):
    delta = LaurentPoly.delta()
    _patched_forms(monkeypatch, "1", lambda i, j, g: g + delta**2 if i != j else g)
    tabs = tableaux(CellLabel("plain", 1), 2)
    assert semisimplicity_check(2) == [
        f"layer 1: <{tabs[0]}, {tabs[1]}> exceeds degree 1 in delta",
        f"layer 1: <{tabs[1]}, {tabs[0]}> exceeds degree 1 in delta",
        "layer 1: determinant's top term is -1 at delta^4, not 5 at delta^2",
    ]


def test_semisimplicity_reports_an_off_diagonal_constant(monkeypatch):
    delta = LaurentPoly.delta()
    _patched_forms(monkeypatch, "1", lambda i, j, g: g + delta if i != j else g)
    tabs = tableaux(CellLabel("plain", 1), 2)
    assert semisimplicity_check(2) == [
        f"layer 1: off-diagonal constant at ({tabs[0]}, {tabs[1]}) is 1",
        f"layer 1: off-diagonal constant at ({tabs[1]}, {tabs[0]}) is 1",
        "layer 1: determinant's top term is 4 at delta^2, not 5 at delta^2",
    ]


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda det: LaurentPoly.zero(), "form determinant vanishes"),
        (lambda det: det * 2, "determinant's top term is 10 at delta^2, not 5 at delta^2"),
        (lambda det: det * LaurentPoly.v_pow(1), "determinant's top term is 5 at delta^3, not 5 at delta^2"),
    ],
)
def test_semisimplicity_checks_the_leading_term(monkeypatch, change, message):
    # the check takes each layer's determinant in delta, where exponent e counts delta^e
    original = RingMatrix.det

    def patched(matrix):  # the 2x2 forms are layers 1 and 1b
        return change(original(matrix)) if matrix.n_rows == 2 else original(matrix)

    monkeypatch.setattr(RingMatrix, "det", patched)
    assert semisimplicity_check(2) == [f"layer 1: {message}", f"layer 1b: {message}"]


@pytest.mark.parametrize("n, entries", [(3, 44), (4, 195), (5, 804)])
def test_semisimplicity_converts_each_form_entry_to_delta_once(monkeypatch, n, entries):
    calls = {"to_delta": 0, "from_delta": 0}

    def counted(name):
        original = getattr(tlh.cellular, name)

        def wrapper(p):
            calls[name] += 1
            return original(p)

        return wrapper

    for name in calls:
        monkeypatch.setattr(tlh.cellular, name, counted(name))
    assert sum(len(tableaux(label, n)) ** 2 for label in lambda_poset(n)) == entries
    assert semisimplicity_check(n) == []
    assert calls == {"to_delta": entries, "from_delta": 0}


def test_verify_cellular_axioms():
    assert verify_cellular_axioms(2) == []
    assert verify_cellular_axioms(3) == []


def test_cell_axioms_report_a_basis_count_off_the_rank(monkeypatch):
    original = tlh.cellular.enumerate_diagrams
    monkeypatch.setattr(tlh.cellular, "enumerate_diagrams", lambda m: original(m)[1:])
    assert verify_cellular_axioms(2) == ["cell basis has 9 elements but the rank is 8"]


def test_cell_axioms_report_coinciding_cell_elements(monkeypatch):
    original = tlh.cellular.cell_element

    def cell_element(label, d1, d2):  # the bullet layer repeats the plain one
        return original(CellLabel("plain", label.k) if label.kind == "bullet" else label, d1, d2)

    monkeypatch.setattr(tlh.cellular, "cell_element", cell_element)
    tabs = tableaux(CellLabel("plain", 1), 2)
    problems = verify_cellular_axioms(2)
    assert [p for p in problems if "coincide" in p] == [
        f"cell elements (1b, {S}, {T}) and {('1', str(S), str(T))} coincide" for S in tabs for T in tabs
    ]


def test_cell_axioms_report_a_flip_that_does_not_swap_the_tableaux(monkeypatch):
    monkeypatch.setattr(AlgebraElement, "star", lambda self: self)
    tabs = tableaux(CellLabel("plain", 1), 2)
    assert verify_cellular_axioms(2) == [
        f"flip of cell element ({label}, {S}, {T}) is not ({label}, {T}, {S})"
        for label in ("1", "1b") for S in tabs for T in tabs if S != T
    ]


def test_cell_axioms_report_an_expansion_that_does_not_round_trip(monkeypatch):
    monkeypatch.setattr(tlh.cellular, "combine_cell_terms", lambda m, coefficients: AlgebraElement.zero(m))
    assert verify_cellular_axioms(2) == [f"cell expansion does not round-trip on {d}" for d in enumerate_diagrams(3)]


def test_semisimplicity_check():
    assert semisimplicity_check(2) == []
    assert semisimplicity_check(3) == []


def test_branching_frozen_reports():
    rep = branching_report(CellLabel("plain", 1), 3)
    assert rep["problems"] == []
    assert rep["dim"] == 3
    assert rep["blocks"] == [{"factor": "1", "dim": 2}, {"factor": "0", "dim": 1}]

    rep = branching_report(CellLabel("middle", 2), 3)
    assert rep["problems"] == []
    assert rep["dim"] == 5
    assert rep["blocks"] == [
        {"factor": "1", "dim": 2},
        {"factor": "1b", "dim": 2},
        {"factor": "0", "dim": 1},
    ]

    rep = branching_report(CellLabel("bullet", 2), 5)
    assert rep["problems"] == []
    assert rep["dim"] == 14
    assert rep["blocks"] == [
        {"factor": "2b", "dim": 9},
        {"factor": "1b", "dim": 4},
        {"factor": "0", "dim": 1},
    ]

    rep = branching_report(CellLabel("zero"), 3)
    assert rep["problems"] == [] and rep["blocks"] == [{"factor": "0", "dim": 1}]

    with pytest.raises(ValueError):
        branching_report(CellLabel("plain", 1), 2)


def test_branching_rejects_a_label_outside_the_poset():
    with pytest.raises(ValueError, match="label mid is not in the rank-4 poset"):
        branching_report(CellLabel("middle", 2), 4)


@pytest.mark.parametrize("n", ["x", 3.0, True, None])
def test_branching_rejects_a_rank_that_is_not_an_integer(n):
    with pytest.raises(ValueError, match=f"^rank must be an integer, got {n!r}$"):
        branching_report(CellLabel("plain", 1), n)


# Fault injection: the east-point rule's own checks, which no layer of a real
# rank triggers, each see a tableau list or a block list made wrong on purpose.


def test_branching_reports_a_decorated_east_cap_under_propagating_edges(monkeypatch):
    label = CellLabel("plain", 1)
    tabs = tableaux(label, 3)
    trapped = HalfDiagram._from_checked(4, ((3, 4, 1),), (1, 2))  # 3-4 decorated, with 1 and 2 free
    monkeypatch.setattr(tlh.cellular, "tableaux", lambda lab, n: tabs[:-1] + (trapped,))
    problems: list = []
    _restricted_blocks(label, 3, problems)
    assert problems == ["decorated east cap under propagating edges in 3-4*"]


def test_branching_reports_an_inadmissible_image_other_than_the_figure_four(monkeypatch):
    monkeypatch.setattr(HalfDiagram, "figure_four", classmethod(lambda cls, m, k: cls(m)))
    problems: list = []
    _restricted_blocks(CellLabel("plain", 2), 4, problems)
    assert problems == ["unexpected inadmissible east-capped image 1-2"]


def test_branching_reports_a_wrong_trivial_top_count(monkeypatch):
    label = CellLabel("plain", 2)
    tabs = tableaux(label, 4)
    monkeypatch.setattr(tlh.cellular, "tableaux", lambda lab, n: tabs + tabs)
    problems: list = []
    _restricted_blocks(label, 4, problems)
    assert problems == ["2 trivial-top elements instead of 1"]


def test_branching_reports_a_basis_of_the_wrong_size(monkeypatch):
    blocks = tlh.cellular._restricted_blocks
    monkeypatch.setattr(tlh.cellular, "_restricted_blocks", lambda *args: blocks(*args)[:-1])  # no trivial top
    report = branching_report(CellLabel("plain", 1), 3)
    assert report["problems"] == ["new basis has 2 vectors for a layer of dimension 3"]


def _unit(idx: int) -> tuple:
    """A tableau kept as it is: (vector, dual functional) both the idx-th unit vector."""
    return {idx: G_ONE}, {idx: G_ONE}


def _east_levels(label: CellLabel, n: int, problems: list) -> list:
    """Plain and bullet layers: the tableaux ordered by what the east point does.

    East-free tableaux come first, matched to the same layer one rank down;
    then the east-capped ones whose image without that cap is admissible,
    matched to the layer of the same kind one cap down (the zero layer when
    k = 1); last, for k >= 2, the one whose image is the figure four,
    spanning a trivial top.
    """
    m = n + 1
    # one rank down, the k-cap stratum may be the middle layer instead
    sub_label = next(mu for mu in _stratum(n, label.k) if mu.kind in (label.kind, "middle"))
    lm1 = CellLabel(label.kind if label.k > 1 else "zero", label.k - 1)
    sub_pos = {h: i for i, h in enumerate(tableaux(sub_label, n - 1))}
    lm1_pos = {h: i for i, h in enumerate(tableaux(lm1, n - 1))}
    free, capped, top = [], [], []
    for idx, S in enumerate(tableaux(label, n)):
        if m in S.free_points:
            free.append((sub_pos[HalfDiagram(m - 1, S.pairs)], idx))
            continue
        east = next(p for p in S.pairs if p[1] == m)
        if east[2]:
            problems.append(f"decorated east cap under propagating edges in {S}")
        image = HalfDiagram(m - 1, tuple(p for p in S.pairs if p[1] != m))
        if image.admissible():
            capped.append((lm1_pos[image], idx))
        else:
            top.append(idx)
            if image != HalfDiagram.figure_four(m - 1, label.k - 1):
                problems.append(f"unexpected inadmissible east-capped image {image}")
    if len(top) != (1 if label.k >= 2 else 0):
        problems.append(f"{len(top)} trivial-top elements instead of {1 if label.k >= 2 else 0}")
    levels = [
        [(sub_label, [_unit(idx) for _, idx in sorted(free)])],
        [(lm1, [_unit(idx) for _, idx in sorted(capped)])],
    ]
    if top:
        levels.append([(CellLabel("zero"), [_unit(idx) for idx in top])])
    return levels


def _middle_levels(label: CellLabel, n: int) -> list:
    """The middle layer: each plain east cap S and its decorated partner S'.

    The pair (C_S, C_S') changes basis to C_S' - gamma1 C_S (factor plain
    k-1) and C_S' - gamma2 C_S (factor bullet k-1), both over the image of S
    without its east cap; the dual functionals are the sibling table's
    coordinates of P and of B.  The one tableau d0 without a partner spans a
    trivial top.
    """
    m = n + 1
    k = label.k
    tabs = tableaux(label, n)
    index = {h: i for i, h in enumerate(tabs)}
    d0 = HalfDiagram(m, HalfDiagram.figure_four(m - 2, k - 1).pairs + ((m - 1, m, 0),))
    small_pos = {h: i for i, h in enumerate(tableaux(CellLabel("plain", k - 1), n - 1))}
    orbits = []
    for idx, S in enumerate(tabs):
        east = next(p for p in S.pairs if p[1] == m)
        if S == d0 or east[2]:
            continue
        rest = tuple(p for p in S.pairs if p[1] != m)
        partner = index[HalfDiagram(m, rest + ((east[0], m, 1),))]
        orbits.append((small_pos[HalfDiagram(m - 1, rest)], idx, partner))
    orbits.sort()
    return [
        [
            (CellLabel(kind, k - 1), [({s: -gamma, p: G_ONE}, {s: on_p, p: on_b}) for _, s, p in orbits])
            for kind, (gamma, on_p, on_b) in SIBLINGS.items()
        ],
        [(CellLabel("zero"), [_unit(index[d0])])],
    ]


def _levels_reference(label: CellLabel, n: int, problems: list) -> list:
    """The per-kind builders _restricted_blocks replaced, kept as its oracle."""
    if label.kind == "zero":
        return [[(label, [_unit(0)])]]
    if label.kind == "middle":
        return _middle_levels(label, n)
    return _east_levels(label, n, problems)


def _level_ranks(blocks) -> list:
    """Each block's rank among the distinct levels: the partition, not the numbering."""
    levels = sorted({lvl for lvl, _, _ in blocks})
    return [levels.index(lvl) for lvl, _, _ in blocks]


@pytest.mark.parametrize("n", range(3, 8))
def test_restricted_blocks_match_the_per_kind_builders(n):
    for label in lambda_poset(n):
        old_problems, new_problems = [], []
        levels = _levels_reference(label, n, old_problems)
        old = [(lvl, f, pairs) for lvl, level in enumerate(levels) for f, pairs in level]
        new = _restricted_blocks(label, n, new_problems)
        assert [f for _, f, _ in new] == [f for _, f, _ in old]
        assert [pairs for *_, pairs in new] == [pairs for *_, pairs in old]
        assert _level_ranks(new) == _level_ranks(old)
        assert new_problems == old_problems == []


@pytest.mark.parametrize("n", range(3, 7))
def test_restricted_blocks_list_only_the_layer_own_tableaux(monkeypatch, n):
    # the images one rank down are keyed by their caps, so no face list on n strands is needed
    calls = []

    def counted(m, k):
        calls.append((m, k))
        return enumerate_half(m, k)

    monkeypatch.setattr(tlh.cellular, "enumerate_half", counted)
    for label in lambda_poset(n):
        calls.clear()
        _restricted_blocks(label, n, [])
        assert calls == [(n + 1, label.k)]


def _perturb_action(monkeypatch, applies, change):
    """Make cell_action_matrix return change(rows) whenever applies(a, label) holds."""
    original = tlh.cellular.cell_action_matrix

    def perturbed(a, label, **kwargs):
        action = original(a, label, **kwargs)
        if not applies(a, label):
            return action
        rows = [list(row) for row in action.rows]
        change(rows)
        return RingMatrix(rows)

    monkeypatch.setattr(tlh.cellular, "cell_action_matrix", perturbed)


def _bump(r, c, amount=1):
    def change(rows):
        rows[r][c] = rows[r][c] + amount
    return change


@pytest.mark.parametrize("text", ["2", "2b"])
def test_branching_reports_an_entry_below_the_blocks(monkeypatch, text):
    label = CellLabel.parse(text, 5)
    tabs = tableaux(label, 5)
    free = next(i for i, S in enumerate(tabs) if 6 in S.free_points)
    capped = next(i for i, S in enumerate(tabs) if 6 not in S.free_points)
    assert branching_report(label, 5)["problems"] == []
    # the image of an east-free tableau picks up an east-capped component
    _perturb_action(monkeypatch, lambda a, lab: a.m == 6 and lab == label, _bump(capped, free))
    assert branching_report(label, 5)["problems"]


@pytest.mark.parametrize("into_bullet", [True, False])
def test_branching_reports_a_middle_corner(monkeypatch, into_bullet):
    label = CellLabel("middle", 3)
    tabs = tableaux(label, 5)
    s, p = next(
        (tabs.index(S), tabs.index(partner))
        for S in tabs
        for a, b, dec in S.pairs
        if b == 6 and not dec
        for partner in [HalfDiagram(6, tuple(q for q in S.pairs if q[1] != 6) + ((a, 6, 1),))]
        if partner in tabs
    )
    # v_gamma = C_p - gamma * C_s; f1, f2 are the dual functionals of v_gamma1, v_gamma2
    v1, v2 = {s: -GAMMA1, p: G_ONE}, {s: -GAMMA2, p: G_ONE}
    f1 = {s: INV_GAMMA_GAP, p: GAMMA2 * INV_GAMMA_GAP}
    f2 = {s: -INV_GAMMA_GAP, p: -GAMMA1 * INV_GAMMA_GAP}
    vector, dual = (v2, f1) if into_bullet else (v1, f2)

    def change(rows):  # add vector (x) dual: one entry between the two blocks
        for r, x in vector.items():
            for c, y in dual.items():
                rows[r][c] = rows[r][c] + x * y

    _perturb_action(monkeypatch, lambda a, lab: a.m == 6 and lab == label, change)
    assert branching_report(label, 5)["problems"]


def test_branching_reports_a_live_zero_layer(monkeypatch):
    zero = CellLabel("zero")
    _perturb_action(monkeypatch, lambda a, lab: a.m == 5 and lab == zero, _bump(0, 0))
    assert branching_report(zero, 4)["problems"]


@pytest.mark.parametrize("text", ["2", "2b", "mid"])
def test_branching_reports_a_wrong_factor_action(monkeypatch, text):
    _perturb_action(monkeypatch, lambda a, lab: a.m == 5, _bump(0, 0))
    assert branching_report(CellLabel.parse(text, 5), 5)["problems"]


def test_verify_branching_computes_each_action_once(monkeypatch):
    calls = []
    original = tlh.cellular.cell_action_matrix

    def counted(a, label, **kwargs):
        calls.append((a, label))
        return original(a, label, **kwargs)

    monkeypatch.setattr(tlh.cellular, "cell_action_matrix", counted)
    assert verify_branching(5) == []
    # 44 distinct (generator, layer) pairs over ranks 5 and 4
    assert len(calls) == 44


def test_verify_branching_sees_a_wrong_factor_action(monkeypatch):
    # the shared memo still holds the (perturbed) action it was given
    label = CellLabel("zero")
    _perturb_action(monkeypatch, lambda a, lab: a.m == 4 and lab == label, _bump(0, 0))
    assert any("diagonal block differs" in p for p in verify_branching(4))


def test_verify_branching_reports_a_generator_fault_and_goes_on(monkeypatch):
    original = tlh.cellular.cell_action_matrix
    faulty = CellLabel("plain", 1)

    def failing(a, label, **kwargs):
        if a.m == 5 and label == faulty:
            raise IndependenceViolation("injected fault")
        return original(a, label, **kwargs)

    monkeypatch.setattr(tlh.cellular, "cell_action_matrix", failing)
    problems = verify_branching(4)
    assert [p for p in problems if p.startswith("layer 1: ")] == [
        f"layer 1: U{i}: injected fault" for i in range(1, 4)
    ]
    assert all(p.startswith("layer 1: ") for p in problems)


def test_verify_branching():
    assert verify_branching(3) == []
    assert verify_branching(4) == []
    assert verify_branching(5) == []


def test_rank_three_cell_functions():
    label = CellLabel("plain", 1)
    first = tableaux(label, 3)[0]
    assert cell_element(label, first, first) is not None
    u = AlgebraElement.from_diagram(generator_U(1, 4))
    assert cell_action_matrix(u, label) == cell_action_matrix(u, label, check_all_T=False)
    assert gram_matrix(CellLabel("zero"), 3) == RingMatrix(((1,),))


def test_independence_violation_is_exported():
    assert issubclass(IndependenceViolation, Exception)
