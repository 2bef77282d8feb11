"""Tests of the benchmark itself: tracing arithmetic, inputs, references, exit codes.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import end_to_end, percentile  # noqa: E402
from spans import Tracer, read_spans  # noqa: E402
from worker import Checked, execute, import_tlh  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, factor_indices, job_digest, product_pairs  # noqa: E402

import_tlh()
import tlh.algebra  # noqa: E402
import tlh.cli  # noqa: E402


def cli_output(argv) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tlh.cli.main(list(argv))
    return code, buf.getvalue()


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and d [5, 6]; b holds c [2, 3]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
    times = tracer.self_times()
    assert times == {"a": (1, 6.0), "b": (1, 2.0), "c": (1, 1.0), "d": (1, 1.0)}
    assert list(tracer.parent) == [-1, 0, 1, 0]


def test_spans_round_trip_through_the_file(tmp_path):
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3]))
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    path = tmp_path / "t.spans.gz"
    tracer.write(path, "setup")
    tracer.write(path, "jobs")
    sections = read_spans(path)
    assert [h["phase"] for h, _ in sections] == ["setup", "jobs"]
    header, arrays = sections[1]
    assert header["names"] == ["a", "b"]
    assert list(arrays["parent"]) == [-1, 0]
    assert list(arrays["start"]) == [0.0, 1.0] and list(arrays["end"]) == [3.0, 2.0]


def test_self_time_of_recursive_spans_adds_up():
    tracer = Tracer(clock=FakeClock([0, 2, 3, 7]))
    with tracer.span("f"):
        with tracer.span("f"):
            pass
    assert tracer.self_times() == {"f": (2, 7.0)}


@pytest.mark.parametrize(
    "argv",
    [
        ("gram", "--n", "3", "--format", "structured"),
        ("multiply", "U1 U2", "U2 U1", "--n", "3"),
        ("factorize", "--n", "3", "--format", "structured"),
    ],
)
def test_tracing_leaves_output_byte_identical(argv):
    plain = cli_output(argv)
    original = tlh.algebra.multiply
    with Tracer().installed() as tracer:
        assert tlh.algebra.multiply is not original
        traced = cli_output(argv)
    assert traced == plain
    assert tlh.algebra.multiply is original
    assert tracer.self_times()["cli.main"][0] == 1


def test_hand_count_multiply_u1_u2():
    # U1 and U2 are each evaluated as 1 * U_i, then multiplied: three gluings,
    # each reduced once; 2 identities + 2 generators + 3 reduced terms are built.
    with Tracer().installed() as tracer:
        code, _ = cli_output(("multiply", "U1", "U2", "--n", "2"))
    assert code == 0
    m = tracer.layer_metrics()
    assert m["tangle.DecoratedTangle.concat.calls"] == 3
    assert m["algebra.normal_form.calls"] == 3
    assert m["diagram.Diagram.calls"] == 7
    assert m["algebra.multiply.calls"] == 3
    assert m["algebra.evaluate_word.calls"] == 2
    assert m["cellular.gram_matrix.calls"] == 0
    assert m["ring.LaurentPoly.divmod_by.calls"] == 0


def test_gram_layer_counts_and_useful_ratio():
    with Tracer().installed() as tracer:
        code, _ = cli_output(("gram", "--n", "3", "--format", "structured"))
    assert code == 0
    m = tracer.layer_metrics()
    assert m["cellular.gram_matrix.calls"] == 4
    assert m["cellular.RingMatrix.det.calls"] == 4
    assert m["cellular.RingMatrix.det.max_dim"] == 5
    assert 0 < m["cellular.expand_in_cell_basis.useful_ratio"] <= 1
    assert m["ring.LaurentPoly.divmod_by.calls"] > 0
    assert 0 < m["tangle.DecoratedTangle.concat.distinct_ratio"] <= 1


def test_inputs_depend_only_on_the_seed():
    assert product_pairs(7, 3, 47607, 1000) == product_pairs(7, 3, 47607, 1000)
    assert product_pairs(7, 3, 47607, 1000) != product_pairs(8, 3, 47607, 1000)
    assert product_pairs(7, 3, 47607, 1000) != product_pairs(7, 4, 47607, 1000)
    assert factor_indices(7, 40, 3185, 100) == factor_indices(7, 40, 3185, 100)
    assert factor_indices(7, 0, 3185, 100) != factor_indices(8, 0, 3185, 100)
    # one round of a factor shuffle never repeats a diagram
    first_round = [i for job in range(31) for i in factor_indices(7, job, 3185, 100)]
    assert len(set(first_round)) == len(first_round)
    gram = WORKLOADS["gram"]
    assert gram(1).inputs(0) == gram(2).inputs(5)


def test_default_seed_digest_matches_the_reference():
    refs = json.loads((BENCH / "ref" / "digests.json").read_text())
    assert refs["seed"] == DEFAULT_SEED
    factor = WORKLOADS["factor"](DEFAULT_SEED)
    outs = [factor.run_op(d) for d in factor.inputs(1)]
    assert all(factor.check(d, w) is None for d, w in zip(factor.inputs(1), outs))
    assert job_digest(factor.canon(w) for w in outs) == refs["factor"][1]
    other = WORKLOADS["factor"](DEFAULT_SEED + 1)
    assert job_digest(other.canon(other.run_op(d)) for d in other.inputs(1)) != refs["factor"][1]


class HalfBroken:
    """A workload whose odd inputs raise and whose inputs above 5 fail the oracle."""

    def run_op(self, x):
        if x % 2:
            raise ValueError(f"odd input {x}")
        return x

    def check(self, x, out):
        return f"{out} is too large" if out > 5 else None

    def canon(self, out):
        return str(out)


def test_failures_are_counted_and_do_not_stop_the_job():
    latencies = []
    outs, _ = execute(HalfBroken(), list(range(10)), latencies)
    assert len(latencies) == 10
    checked = Checked(HalfBroken(), refs=None)
    checked.check_job(0, list(range(10)), outs)
    # odd inputs raised; 6 and 8 failed the oracle; 0, 2, 4 passed
    assert (checked.attempted, checked.failed) == (10, 7)
    assert checked.problems[0].startswith("job 0 op 1: ValueError")


def test_end_to_end_pools_the_workers():
    records = [
        {"job_times": [1.0, 3.0], "job_p50s": [0.1, 0.3], "latencies": [0.1] * 99 + [0.5],
         "attempted": 100, "failed": 0, "peak_rss_mb": 20.0},
        {"job_times": [2.0], "job_p50s": [0.2], "latencies": [0.2] * 100,
         "attempted": 100, "failed": 10, "peak_rss_mb": 30.0},
    ]
    metrics, meta = end_to_end(records, [3.0, 1.0, 2.0])
    assert metrics["setup_s"] == 2.0
    assert metrics["job_s"] == 2.0
    assert metrics["ops_per_s"] == 190 / 6.0
    assert abs(metrics["op_p50_ms"] - 200.0) < 1e-9
    assert metrics["op_p99_ms"] == 200.0  # rank 198 of 200; one sample lies beyond it
    assert metrics["peak_rss_mb"] == 30.0
    assert (meta["jobs"], meta["latency_samples"], meta["samples_beyond_p99"]) == (3, 200, 1)
    assert percentile([1, 2, 3, 4], 50) == 2 and percentile([1, 2, 3, 4], 99) == 4


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run(checkout: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


def test_corrupted_reference_fails_the_run(tmp_path):
    checkout = _checkout(tmp_path, with_sources=True)
    ref = checkout / "perfbench" / "ref" / "digests.json"
    data = json.loads(ref.read_text())
    data["factor"][0] = "0" * 16
    ref.write_text(json.dumps(data))
    proc = _run(checkout, "--workload", "factor", "--seed", str(DEFAULT_SEED), "--seconds", "1")
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 100 and result["attempted"] >= result["failed"]
    meta = json.loads(proc.stdout.splitlines()[-2])
    assert meta["fail_ratio"] > 0 and "digest" in meta["problems"][0]


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    checkout = _checkout(tmp_path, with_sources=False)
    proc = _run(checkout, "--workload", "gram", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_uninstall_leaves_no_wrapper_in_modules_imported_during_install():
    code = (
        "import sys; sys.path[:0] = [sys.argv[1]]\n"
        "from worker import import_tlh; import_tlh()\n"
        "from spans import Tracer\n"
        "assert 'tlh.cli' not in sys.modules\n"
        "with Tracer().installed(): pass\n"
        "import tlh.cli, tlh.cellular\n"
        "assert tlh.cli.gram_matrix is tlh.cellular.gram_matrix\n"
        "assert not hasattr(tlh.cli.gram_matrix, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True, timeout=60)
