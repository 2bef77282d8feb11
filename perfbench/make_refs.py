"""Regenerate the committed references in perfbench/ref/.

    python3 perfbench/make_refs.py

Writes ref/gram_n5.jsonl (the byte-exact output of
``tlh gram --n 5 --format structured``) and ref/digests.json (one digest per
job of ``products`` and ``factor`` for the default seed).  Every output passes
its workload's oracle before it is recorded.  Run it only when tlh's output is
meant to change, and review the diff.
"""

from __future__ import annotations

import json

from worker import HERE, import_tlh
from workloads import DEFAULT_SEED, PREBUILT_JOBS, WORKLOADS, job_digest


def main():
    import_tlh()
    gram = WORKLOADS["gram"](DEFAULT_SEED)
    code, text = gram.run_op(gram.argv)
    if code != 0:
        raise SystemExit(f"tlh {' '.join(gram.argv)} exited {code}")
    (HERE / "ref" / "gram_n5.jsonl").write_text(text)

    digests = {"seed": DEFAULT_SEED}
    for name in ("products", "factor"):
        w = WORKLOADS[name](DEFAULT_SEED)
        digests[name] = []
        for job in range(PREBUILT_JOBS):
            inputs = w.inputs(job)
            outs = [w.run_op(inp) for inp in inputs]
            for inp, out in zip(inputs, outs):
                problem = w.check(inp, out)
                if problem:
                    raise SystemExit(f"{name} job {job}: {problem}")
            digests[name].append(job_digest(w.canon(o) for o in outs))
        print(f"{name}: {PREBUILT_JOBS} jobs of {w.job_size}")
    (HERE / "ref" / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
