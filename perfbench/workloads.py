"""The three benchmark workloads: inputs from a seed, one operation, its checks.

Each workload is a closed loop with one client: ``run_op`` is called on one
input at a time and the next call starts when the previous one returns.
Inputs are grouped in fixed-size jobs; job ``j`` of a seed always holds the
same inputs, however many jobs a run gets through.  ``check`` is the oracle
applied to every output outside the timed section, and ``canon`` is the text
of an output that the committed digests cover.

* ``products``: one product of two basis elements drawn uniformly from the
  rank-8 basis (9 strands, 47 607 diagrams).  Operands are single diagrams,
  so the per-product path (gluing, validation, reduction) dominates, and
  draws almost never repeat, so a structure-constant memo has nothing to hit.
* ``gram``: ``tlh gram --n 5 --format structured`` through ``tlh.cli.main``:
  cell-layer products, long Laurent polynomials and Bareiss determinants.
  Its output does not depend on the seed and is byte-compared.
* ``factor``: ``factorize`` on a seeded shuffle of the rank-6 basis
  (7 strands, 3 185 diagrams).  Each word is built from the multi-term
  special elements, and the same small products recur across diagrams.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"
DEFAULT_SEED = 20260825  # tlh.cli.DEFAULT_SEED; digests are committed for it
#: Jobs whose inputs are built during set-up; later ones are built between jobs.
PREBUILT_JOBS = 64


def job_digest(texts) -> str:
    """The committed form of a job's outputs: a short SHA-256 of their texts."""
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()[:16]


def product_pairs(seed: int, job: int, basis_size: int, job_size: int) -> list:
    """Index pairs drawn uniformly with replacement for one products job."""
    rng = random.Random(f"products:{seed}:{job}")
    return [(rng.randrange(basis_size), rng.randrange(basis_size)) for _ in range(job_size)]


def factor_indices(seed: int, job: int, basis_size: int, job_size: int) -> list:
    """Basis indices of one factor job: consecutive slices of seeded shuffles."""
    per_round = basis_size // job_size
    rnd, slot = divmod(job, per_round)
    order = list(range(basis_size))
    random.Random(f"factor:{seed}:{rnd}").shuffle(order)
    return order[slot * job_size : (slot + 1) * job_size]


class Products:
    name = "products"
    job_size = 1000
    min_ops = 1000  # fewest operations in an untraced run: ten latencies beyond p99
    trace_jobs = 4  # traced jobs in a traced run, alternating with as many untraced ones
    m = 9

    def __init__(self, seed: int):
        from tlh import AlgebraElement, LaurentPoly, enumerate_diagrams

        self.seed = seed
        self.basis = enumerate_diagrams(self.m)
        self.elements = [AlgebraElement.from_diagram(d) for d in self.basis]
        self.delta_powers = [LaurentPoly.one()]
        for _ in range(self.m // 2):
            self.delta_powers.append(self.delta_powers[-1] * LaurentPoly.delta())
        self._prebuilt = {j: self._build(j) for j in range(PREBUILT_JOBS)}

    def inputs(self, job: int) -> list:
        return self._prebuilt[job] if job in self._prebuilt else self._build(job)

    def _build(self, job: int) -> list:
        return [
            (self.basis[a], self.basis[b], self.elements[a], self.elements[b])
            for a, b in product_pairs(self.seed, job, len(self.basis), self.job_size)
        ]

    def run_op(self, inp):
        return inp[2] * inp[3]

    def check(self, inp, out):
        """Positivity (criterion 06): each coefficient is c * [2]^j, c a positive integer, j <= min(k1, k2)."""
        d1, d2 = inp[0], inp[1]
        if out.m != self.m:
            return f"product on {out.m} strands"
        for d, full in out.items():
            # [2]^j spans v^-j .. v^j, so j and c can be read off the top term
            j = (full.max_exp - full.min_exp) // 2
            const = full.coefficient(full.max_exp)
            if not (
                const.b == 0
                and isinstance(const.a, int)
                and const.a > 0
                and j <= min(d1.k, d2.k)
                and full == self.delta_powers[j] * const
            ):
                return f"({d1}) * ({d2}) has coefficient {full} at {d}"
        return None

    @staticmethod
    def canon(out) -> str:
        return str(out)


class Factor:
    name = "factor"
    job_size = 100
    min_ops = 1000
    trace_jobs = 10
    m = 7

    def __init__(self, seed: int):
        import tlh.factor
        from tlh import AlgebraElement, enumerate_diagrams, evaluate_word

        self.seed = seed
        self.factor = tlh.factor  # looked up per call, so a tracer's patch applies
        self.basis = enumerate_diagrams(self.m)
        self.from_diagram = AlgebraElement.from_diagram
        self.evaluate_word = evaluate_word
        self._prebuilt = {j: self._build(j) for j in range(PREBUILT_JOBS)}

    def inputs(self, job: int) -> list:
        return self._prebuilt[job] if job in self._prebuilt else self._build(job)

    def _build(self, job: int) -> list:
        return [self.basis[i] for i in factor_indices(self.seed, job, len(self.basis), self.job_size)]

    def run_op(self, d):
        return self.factor.factorize(d)

    def check(self, d, word):
        """The word evaluates back to the diagram."""
        if self.evaluate_word(word, self.m) != self.from_diagram(d):
            return f"word {' '.join(word)} does not evaluate to {d}"
        return None

    @staticmethod
    def canon(word) -> str:
        return " ".join(word)


class Gram:
    name = "gram"
    job_size = 1
    min_ops = 1  # one long operation: no percentile has ten samples beyond it
    trace_jobs = 1
    argv = ("gram", "--n", "5", "--format", "structured")

    def __init__(self, seed: int):
        import tlh.cli

        self.seed = seed
        self.cli = tlh.cli
        self._reference = None

    def inputs(self, job: int) -> list:
        return [self.argv]

    def run_op(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        return code, buf.getvalue()

    def check(self, argv, out):
        code, text = out
        if code != 0:
            return f"tlh {' '.join(argv)} exited {code}"
        if self._reference is None:
            self._reference = (REF_DIR / "gram_n5.jsonl").read_text()
        if text != self._reference:
            return f"tlh {' '.join(argv)} output differs from ref/gram_n5.jsonl"
        return None

    @staticmethod
    def canon(out) -> str:
        return out[1]


WORKLOADS = {w.name: w for w in (Products, Gram, Factor)}
