"""The tlh benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload products --seed 1 --seconds 12 --trace 0

Workloads: products, gram, factor (see workloads.py and NOTES.md).  A run
starts fresh worker processes one at a time, never two at once.

Untraced, WORKERS processes each set up the workload from scratch; worker i
then runs jobs until the run's timed total reaches (i + 1) / WORKERS of
``--seconds`` (a worker may run none when earlier jobs outlasted its share).
``setup_s`` is the median of their times from process start to their
``ready`` line; the other metrics pool the jobs of all of them.  Spreading
the timed work over several processes, seconds apart, averages out the
host's slow spells, which last several seconds.  Traced, one worker sets up
once and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, where ``metrics``
holds exactly the metrics that BENCHMARK.json declares (``end_to_end``
untraced, ``per_layer`` traced); the line before it is the run's metadata
record (``"kind": "run"``).  Exit status: 0 when every operation passed its
checks, 1 when some failed, 2 when no result could be produced (for
instance when the tlh sources are missing).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 3
DEADLINE_S = 170  # every worker is killed by then; the limit for a run is 180 s


class WorkerFailed(Exception):
    """A worker ended without the output the protocol expects."""


def run_worker(args, extra: list, deadline: float) -> tuple:
    """Start one worker and wait for it; (seconds to 'ready', its record, exit code)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        *extra,
    ]
    # a fixed hash seed gives every run the same dict and set layouts
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(0.0, deadline - started), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready":
        raise WorkerFailed(f"worker exited {code} before set-up finished")
    lines = rest.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"worker exited {code} without a result")
    return ready_s, json.loads(lines[-1]), code


def percentile(sorted_values, pct: int) -> float:
    """Nearest-rank percentile of a non-empty ascending sequence."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]


def end_to_end(records: list, setup_times: list) -> tuple:
    """Pool the workers' jobs into the end-to-end metrics; (metrics, metadata)."""
    job_times = [t for r in records for t in r["job_times"]]
    job_p50s = [t for r in records for t in r["job_p50s"]]
    lat = sorted(x for r in records for x in r["latencies"])
    timed = sum(job_times)
    passed = sum(r["attempted"] - r["failed"] for r in records)
    p99 = percentile(lat, 99)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_s": timed / len(job_times),
        "ops_per_s": passed / timed,
        "op_p50_ms": statistics.fmean(job_p50s) * 1e3,
        "op_p99_ms": p99 * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
    }
    meta = {
        "setup_s_samples": setup_times,
        "jobs": len(job_times),
        "timed_s": timed,
        "latency_samples": len(lat),
        "samples_beyond_p99": sum(1 for x in lat if x > p99),
    }
    return metrics, meta


def git_commit():
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_metadata(args, records: list) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tlh").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "kind": "run",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "tlh_commit": git_commit(),
        "tlh_src_sha256": src_hash.hexdigest()[:16],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": [p for r in records for p in r["problems"]][:5],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    deadline = time.perf_counter() + DEADLINE_S

    records, setup_times, codes = [], [], []
    parts = 1 if args.trace else WORKERS
    min_ops = WORKLOADS[args.workload].min_ops
    timed = ops = 0
    try:
        for part in range(parts):
            extra = [] if args.trace else [
                "--seconds", str(args.seconds * (part + 1) / parts - timed),
                "--min-ops", str(math.ceil(min_ops * (part + 1) / parts) - ops),
                "--part", str(part), "--parts", str(parts),
            ]
            ready_s, record, code = run_worker(args, extra, deadline)
            setup_times.append(ready_s)
            records.append(record)
            codes.append(code)
            if not args.trace:
                timed += sum(record["job_times"])
                ops += len(record["latencies"])
    except (WorkerFailed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    meta = run_metadata(args, records)
    if args.trace:
        values = records[0].pop("metrics")
        meta.update({k: v for k, v in records[0].items() if k not in meta and k != "problems"})
    else:
        values, pooled = end_to_end(records, setup_times)
        meta.update(pooled)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": meta["failed"] == 0 and not any(codes),
        "attempted": meta["attempted"],
        "failed": meta["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
