"""One benchmark process: set up a workload, report readiness, run and check it.

Started by ``run.py``.  The process prints ``ready`` once its set-up is done
(the parent times set-up from process start to that line), then runs its jobs
and prints one JSON line with its raw timings and counts.

Untraced (``--trace 0``): this worker's share of the fixed-size jobs (job
indices ``part``, ``part + parts``, ...) runs back to back until their timed
total reaches ``--seconds`` and ``--min-ops`` operations have run, which may
mean no job at all; each job's outputs are checked after the job, outside the
timed section.  Traced
(``--trace 1``): a fixed number of untraced jobs alternate with as many
further jobs run with every tlh public function wrapped, so the per-layer
counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import array
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, job_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
MAX_PROBLEMS = 5


def import_tlh():
    """Import tlh from this checkout's sources, never from an installed copy."""
    pkg = SRC / "tlh"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no tlh sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import tlh

    if Path(tlh.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported tlh from {tlh.__file__}, not from {pkg}")


class Checked:
    """Counts and problems over every checked operation of a run."""

    def __init__(self, workload, refs):
        self.workload = workload
        self.refs = refs  # committed job digests, or None when the seed has none
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def _problem(self, text: str):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def check_job(self, job: int, inputs: list, outs: list):
        w = self.workload
        bad = set()
        for i, (inp, out) in enumerate(zip(inputs, outs)):
            if isinstance(out, Exception):
                problem = f"{type(out).__name__}: {out}"
            else:
                try:
                    problem = w.check(inp, out)
                except Exception as exc:  # an oracle crash fails the operation, not the run
                    traceback.print_exc()
                    problem = f"oracle raised {type(exc).__name__}: {exc}"
            if problem:
                bad.add(i)
                self._problem(f"job {job} op {i}: {problem}")
        if self.refs is not None and job < len(self.refs):
            digest = job_digest(repr(type(o)) if isinstance(o, Exception) else w.canon(o) for o in outs)
            if digest != self.refs[job]:
                bad.update(range(len(outs)))
                self._problem(f"job {job}: digest {digest} != reference {self.refs[job]}")
        self.attempted += len(outs)
        self.failed += len(bad)


def execute(workload, inputs: list, latencies, span=None):
    """Run one job's operations back to back; (outputs, wall time of the job)."""
    run_op = workload.run_op
    if span is not None:
        plain = run_op

        def run_op(inp):
            with span("bench.op"):
                return plain(inp)

    clock = time.perf_counter
    outs = []
    started = clock()
    for inp in inputs:
        t = clock()
        try:
            out = run_op(inp)
        except Exception as exc:  # counted as a failed operation by check_job
            traceback.print_exc()
            out = exc
        latencies.append(clock() - t)
        outs.append(out)
    return outs, clock() - started


def load_refs(workload, seed: int):
    path = HERE / "ref" / "digests.json"
    if seed != DEFAULT_SEED or workload.name == "gram":
        return None
    data = json.loads(path.read_text())
    if data["seed"] != seed:
        raise SystemExit(f"error: {path} holds digests for seed {data['seed']}, not {seed}")
    return data[workload.name]


def run_untraced(args, workload, checked) -> dict:
    """This worker's share of the jobs: job indices part, part + parts, ..."""
    latencies = array.array("d")
    job_times, job_p50s = [], []
    job = args.part
    while sum(job_times) < args.seconds or len(latencies) < args.min_ops:
        inputs = workload.inputs(job)
        first = len(latencies)
        outs, wall = execute(workload, inputs, latencies)
        job_times.append(wall)
        job_p50s.append(statistics.median(latencies[first:]))
        checked.check_job(job, inputs, outs)
        job += args.parts
    return {
        "job_times": job_times,
        "job_p50s": job_p50s,
        "latencies": latencies.tolist(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(args, workload, checked, setup_tracer) -> dict:
    """Jobs 0.. untraced alternate with jobs trace_jobs.. traced, so host drift hits both alike."""
    jobs = workload.trace_jobs
    latencies = array.array("d")
    tracer = Tracer()
    untraced, traced, results = [], [], []
    for job in range(jobs):
        inputs = workload.inputs(job)
        outs, wall = execute(workload, inputs, latencies)
        untraced.append(wall)
        results.append((job, inputs, outs))
        inputs = workload.inputs(jobs + job)
        with tracer.installed():
            outs, wall = execute(workload, inputs, latencies, tracer.span)
        traced.append(wall)
        results.append((jobs + job, inputs, outs))
    for job, inputs, outs in results:  # checked untraced, after the originals are back
        checked.check_job(job, inputs, outs)
    metrics = tracer.layer_metrics()
    metrics["diagram.enumerate_diagrams.self_s"] += setup_tracer.layer_metrics()["diagram.enumerate_diagrams.self_s"]
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{workload.name}-{args.seed}.spans.gz"
    spans_path.unlink(missing_ok=True)
    setup_tracer.write(spans_path, "setup")
    tracer.write(spans_path, "jobs")
    return {
        "metrics": metrics,
        "untraced_job_s": untraced,
        "traced_job_s": traced,
        "spans": len(setup_tracer.start) + len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="this worker's timed share")
    parser.add_argument("--min-ops", type=int, default=0, help="this worker's minimum operation count")
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)

    import_tlh()

    setup_tracer = Tracer()
    if args.trace:
        with setup_tracer.installed():
            workload = WORKLOADS[args.workload](args.seed)
    else:
        workload = WORKLOADS[args.workload](args.seed)
    checked = Checked(workload, load_refs(workload, args.seed))
    print("ready", flush=True)

    if args.trace:
        record = run_traced(args, workload, checked, setup_tracer)
    else:
        record = run_untraced(args, workload, checked)
    record.update(attempted=checked.attempted, failed=checked.failed, problems=checked.problems)
    print(json.dumps(record), flush=True)
    return 0 if checked.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
