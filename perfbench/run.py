"""Run one workload of the refparse benchmark and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload train-2k --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs the same pipeline with spans and
reports the per-layer metrics. Each run also writes a record with the
machine, versions and sample counts under `.perfbench/runs/`, and a traced
run writes its spans under `.perfbench/spans/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# single closed-loop client: BLAS gets one thread, which also keeps timings
# steadier on a machine shared with other work
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="keep sampling until this long after the run started")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def environment(root: Path) -> dict:
    import numpy
    import scipy

    from layers import src_lines

    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "commit": git_commit(root),
        "src_digest": source_digest(root / "src"),
        "src_lines": src_lines(root),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "refparse" / "__init__.py").is_file():
        print(f"perfbench: no refparse sources in {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads OpenBLAS
    sys.path.insert(0, str(src))
    os.chdir(root)

    import refparse

    if Path(refparse.__file__).resolve().parent != (src / "refparse").resolve():
        print(f"perfbench: imported refparse from {refparse.__file__}, not {src}",
              file=sys.stderr)
        return 2

    from layers import PER_LAYER, per_layer_metrics
    from pipeline import END_TO_END_UNITS, WORKLOADS, Scale, run_pipeline
    from tracing import Tracer

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    base = Path(".perfbench")
    work = base / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(run_id=tag, enabled=bool(args.trace))
    try:
        state, acct, e2e = run_pipeline(workload, Scale(), args.seed, args.seconds,
                                        work, tracer)
        if args.trace:
            values = per_layer_metrics(state, tracer, root, acct, e2e["pipeline_s"])
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
            tracer.write(base / "spans" / f"{tag}.jsonl")
        else:
            values, units = e2e, END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units if name in values}
    result = {
        "correct": acct.failed == 0,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": metrics,
    }
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root),
        "samples": state.samples,
        "problems": acct.problems,
        **result,
    }
    (base / "runs").mkdir(parents=True, exist_ok=True)
    (base / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    for problem in acct.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
