"""Command-line front end: enumeration, products, factorization, forms, verification.

Subcommands: dims, enumerate, multiply, factorize, gram, verify.  Output is
human-readable text by default; --format structured prints line-delimited
JSON records with sorted keys, so identical inputs give byte-identical
output.  Exit status: 0 when every check passes; 1 when a mathematical
property is violated or the computation raises (reported as a
{"kind": "failure"} record); 2 on a usage error -- a bad option, a malformed
--lambda or operand -- or an --out path that cannot be written, which is
checked before any computation.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import sys
from math import comb

from tlh.algebra import (
    AlgebraElement,
    evaluate_word,
    positivity_check,
    verify_associativity,
    verify_presentation,
)
from tlh.cellular import (
    CellLabel,
    IndependenceViolation,
    gram_det,
    gram_matrix,
    lambda_poset,
    semisimplicity_check,
    tableaux,
    verify_branching,
    verify_cellular_axioms,
)
from tlh.diagram import enumerate_diagrams
from tlh.factor import FactorizationError, factorize
from tlh.ring import LaurentPoly

DEFAULT_SEED = 20260825

#: Largest n each operation runs at without an explicit --cap override.
DEFAULT_CAPS = {
    "dims": 8,
    "enumerate": 8,
    "multiply": 8,
    "factorize": 6,
    "gram": 5,
    "presentation": 6,
    "associativity": 4,
    "positivity": 4,
    "cellular": 5,
    "semisimplicity": 5,
    "branching": 6,
}

class UsageError(Exception):
    """A malformed invocation; reported on stderr with exit status 2."""


class Report:
    """Collects output lines in the requested format and writes them once."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: list = []

    def emit(self, record: dict, text: str):
        if self.fmt == "structured":
            self.lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        else:
            self.lines.append(text)

    def write(self, out_path):
        data = "".join(line + "\n" for line in self.lines)
        if out_path:
            pathlib.Path(out_path).write_text(data)
        else:
            sys.stdout.write(data)


def _rank(args, *keys, n=None) -> int:
    """--n after checking it, or else the operands' rank n; then n against each key's size cap."""
    if n is None:
        if args.n is None:
            raise UsageError("this subcommand needs --n")
        if args.n < 2:
            raise UsageError(f"--n must be at least 2, got {args.n}")
        n = args.n
    for key in keys:
        cap = DEFAULT_CAPS[key] if args.cap is None else args.cap
        if cap <= 0:
            raise UsageError(f"--cap must be positive, got {cap}")
        if n > cap:
            raise UsageError(f"{key} is capped at n <= {cap} (got n = {n}); override with --cap")
    return n


def _parse_label(text: str, n: int) -> CellLabel:
    """A --lambda selector as a label of the rank-n poset."""
    try:
        return CellLabel.parse(text, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_element(operand: str, n) -> AlgebraElement:
    """An operand: a JSON file path, or a word like 'U1 U2' or 'epsilon*beta'."""
    path = pathlib.Path(operand)
    if path.is_file():
        try:
            return AlgebraElement.from_json(json.loads(path.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"{operand}: {exc}") from exc
    tokens = [t for t in re.split(r"[\s*,]+", operand.strip()) if t]
    if not tokens:
        raise UsageError("empty operand")
    if n is None:
        raise UsageError(f"operand {operand!r} is not a file; a generator word needs --n")
    try:
        return evaluate_word(tokens, n + 1)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _operands(args, key: str, *texts) -> list:
    """The operands, on one strand count: n + 1 with --n, else any within the cap for key."""
    n = None if args.n is None else _rank(args, key)
    operands = [_load_element(text, n) for text in texts]
    m = operands[0].m
    if any(x.m != m for x in operands):
        raise UsageError(f"operands live on {' and '.join(str(x.m) for x in operands)} strands")
    if n is None:
        _rank(args, key, n=m - 1)
    elif m != n + 1:
        raise UsageError(f"--n {n} means {n + 1} strands, but operands have {m}")
    return operands


def cmd_dims(args, report: Report) -> int:
    n = _rank(args, "dims")
    total = 0
    for label in lambda_poset(n):
        dim = len(tableaux(label, n))
        total += dim * dim
        report.emit(
            {"kind": "dims", "label": str(label), "dim": dim},
            f"|M({label})| = {dim}",
        )
    formula = comb(2 * n + 2, n + 1) - 2 ** (n + 2) + n + 3
    enumerated = len(enumerate_diagrams(n + 1))
    ok = total == formula == enumerated
    report.emit(
        {
            "kind": "total",
            "sum_of_squares": total,
            "formula": formula,
            "enumerated": enumerated,
            "verdict": "pass" if ok else "fail",
        },
        f"sum of squares = {total}; closed form = {formula}; "
        f"enumerated = {enumerated}: {'pass' if ok else 'FAIL'}",
    )
    return 0 if ok else 1


def cmd_enumerate(args, report: Report) -> int:
    n = _rank(args, "enumerate")
    if args.selector:
        label = _parse_label(args.selector, n)
        for h in tableaux(label, n):
            report.emit({"kind": "tableau", "label": str(label), "half": h.to_json()}, str(h))
    else:
        for d in enumerate_diagrams(n + 1):
            report.emit({"kind": "diagram", "diagram": d.to_json()}, str(d))
    return 0


def cmd_multiply(args, report: Report) -> int:
    left, right = _operands(args, "multiply", args.left, args.right)
    product = left * right
    report.emit(product.to_json(), str(product))
    return 0


def cmd_factorize(args, report: Report) -> int:
    if args.element is None:
        diagrams = enumerate_diagrams(_rank(args, "factorize") + 1)
    else:
        terms = _operands(args, "factorize", args.element)[0].items()
        if len(terms) != 1 or terms[0][1] != LaurentPoly.one():
            raise UsageError("factorization needs a single basis diagram with coefficient 1")
        diagrams = [terms[0][0]]
    code = 0
    for d in diagrams:
        try:
            word = factorize(d)
        except FactorizationError as exc:
            if args.element is not None:
                raise  # one operand's failure is the run's failure record
            report.emit(
                {"kind": "factorization", "diagram": d.to_json(), "verdict": "fail", "detail": str(exc)},
                f"FAIL {d}: {exc}",
            )
            code = 1
            continue
        report.emit(
            {"kind": "factorization", "diagram": d.to_json(), "word": word},
            f"{d}  ->  {' '.join(word) if word else '1'}",
        )
    return code


def cmd_gram(args, report: Report) -> int:
    n = _rank(args, "gram")
    labels = (_parse_label(args.selector, n),) if args.selector else lambda_poset(n)
    code, forms = 0, {}  # a sibling layer's form comes from the call on the other
    for label in labels:
        try:
            form = gram_matrix(label, n, forms=forms)
        except IndependenceViolation as exc:
            report.emit(
                {"kind": "gram", "label": str(label), "verdict": "fail", "detail": str(exc)},
                f"lambda = {label}: FAIL {exc}",
            )
            code = 1
            continue
        det = gram_det(form)
        verdict = "degenerate" if det.is_zero() else "nondegenerate"
        record = {
            "kind": "gram",
            "label": str(label),
            "dim": form.n_rows,
            "gram_det": det.to_json(),
            "verdict": verdict,
        }
        text = f"lambda = {label}: dim {form.n_rows}, det = {det}, {verdict}"
        if args.selector:
            record["matrix"] = form.to_json()
            text += "\n" + str(form)
        report.emit(record, text)
        if det.is_zero():
            code = 1
    return code


#: Each verify suite, in run order: what passing it certifies (printed in the
#: report header) and its check, called with n and the seed.
SUITES = {
    "presentation": (
        "defining relations and special-element identities of the generators",
        lambda n, seed: verify_presentation(n + 1),
    ),
    "associativity": (
        "product associativity and order-independence of reduction",
        lambda n, seed: verify_associativity(n + 1, seed),
    ),
    "positivity": (
        "structure constants are positive integers times powers of [2]",
        lambda n, seed: positivity_check(n + 1),
    ),
    "cellular": (
        "cell-basis axioms: basis, flip symmetry, south-independent action",
        lambda n, seed: verify_cellular_axioms(n),
    ),
    "semisimplicity": (
        "every cell layer carries a symmetric nondegenerate bilinear form",
        lambda n, seed: semisimplicity_check(n),
    ),
    "branching": (
        "dropping the east strand triangularizes each layer over lower-rank layers",
        lambda n, seed: verify_branching(n),
    ),
}


def cmd_verify(args, report: Report) -> int:
    n = _rank(args)
    if args.suite == "branching" and n < 3:
        raise UsageError("the branching suite needs n >= 3")
    suites = [s for s in SUITES if args.suite in (s, "all") and (s != "branching" or n >= 3)]
    _rank(args, *suites)
    failures = 0
    for suite in suites:
        prop, check = SUITES[suite]
        report.emit(
            {"kind": "suite", "suite": suite, "n": n, "property": prop},
            f"== {suite} (n = {n}): {prop}",
        )
        problems = check(n, args.seed)
        for p in problems:
            report.emit(
                {"kind": "check", "suite": suite, "verdict": "fail", "detail": p},
                f"FAIL {p}",
            )
        report.emit(
            {"kind": "result", "suite": suite, "verdict": "pass" if not problems else "fail", "failures": len(problems)},
            f"{'PASS' if not problems else 'FAIL'} {suite}: {len(problems)} violation(s)",
        )
        failures += len(problems)
    return 0 if failures == 0 else 1


def _integer(text: str) -> int:
    """argparse type of --n, --cap and --seed: ASCII digits with an optional leading '-'.

    ``int`` alone would also take other Unicode digits, '_' separators and surrounding spaces."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=_integer, default=None, help="Coxeter index; diagrams use n + 1 strands")
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="structured prints line-delimited JSON records")
    common.add_argument("--cap", type=_integer, default=None, help="override the built-in size cap")
    common.add_argument("--out", default=None, metavar="PATH", help="write output to a file")
    layered = argparse.ArgumentParser(add_help=False, parents=[common])
    layered.add_argument("--lambda", dest="selector", default=None, metavar="LABEL",
                         help="cell label selector: 0, k, kb or mid")

    parser = argparse.ArgumentParser(prog="tlh", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dims", parents=[common], help="cell layer sizes and the total rank")
    p.set_defaults(func=cmd_dims)
    p = sub.add_parser("enumerate", parents=[layered], help="list basis diagrams, or one layer's tableaux")
    p.set_defaults(func=cmd_enumerate)
    p = sub.add_parser("multiply", parents=[common], help="multiply two elements (JSON files or generator words)")
    p.add_argument("left", help="JSON file, or word such as 'U1 U2' or 'epsilon*beta'")
    p.add_argument("right", help="second operand")
    p.set_defaults(func=cmd_multiply)
    p = sub.add_parser("factorize", parents=[common], help="write basis diagrams as generator words")
    p.add_argument("element", nargs="?", default=None, help="JSON file or word; omit to list all diagrams at --n")
    p.set_defaults(func=cmd_factorize)
    p = sub.add_parser("gram", parents=[layered], help="bilinear form matrices and determinants")
    p.set_defaults(func=cmd_gram)
    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument("suite", choices=(*SUITES, "all"))
    p.add_argument("--seed", type=_integer, default=DEFAULT_SEED, help="seed for randomized checks")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    report, made = Report(args.format), False
    try:
        if args.out:
            # fail on an unwritable path before computing; appending keeps an existing file
            try:
                open(args.out, "x").close()
                made = True
            except FileExistsError:
                open(args.out, "a").close()
        try:
            code = args.func(args, report)
        except (UsageError, OSError):
            raise
        except Exception as exc:
            name = type(exc).__name__
            report.emit({"kind": "failure", "error": name, "detail": str(exc)}, f"FAIL {name}: {exc}")
            code = 1
        report.write(args.out)
    except (UsageError, OSError) as exc:
        if made:  # a usage error leaves no file behind that this run created
            pathlib.Path(args.out).unlink(missing_ok=True)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
