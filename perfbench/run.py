"""Wall-clock benchmark of the NUFFT library and service, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload iter-2d --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` traces every
other op and reports the per-layer metrics instead.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it repeat each metric with its unit and sample
count.  Each run appends a self-describing record to ``out/results.jsonl``
(and a traced run writes its spans to ``out/``) next to this file.  The exit
status is 0 only when every checked output is within tolerance and no op
failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("iter-2d", "hiacc-3d", "serve-mixed")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _commit():
    """HEAD of the checkout's git metadata, or "unknown" without any."""
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
    return "unknown"


def main(argv=None):
    args = _parse(argv)
    nproc = len(os.sched_getaffinity(0))
    # BLAS/OpenMP pools read these once, at import: pin before numpy loads.
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    # Default options mean no persistent artifact store.
    os.environ.pop("REPRO_ARTIFACT_STORE", None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np
    import scipy

    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "nproc": nproc,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    if result.tracer is not None:
        result.tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    summary = {
        "correct": result.correct, "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in result.metrics.items()},
    }
    with open(out_dir / "results.jsonl", "a") as fh:
        fh.write(json.dumps(dict(meta, **summary)) + "\n")

    print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for note in result.notes:
        print("  " + note)
    for name, (value, unit, samples) in result.metrics.items():
        print(f"  {name:<26} {value:>14.6g} {unit:<6} {samples}")
    print(json.dumps(summary))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
