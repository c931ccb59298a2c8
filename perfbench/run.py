"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_all --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The body of the workload is repeated while another body is expected to end
within ``--seconds`` (at least once).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
instruments the package's modules and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries the
environment, the per-run samples and the informational metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
SETUP_REPEATS = 7
PROBE_TIMEOUT_S = 120
EXIT_NO_SOURCE = 2
EXIT_INCORRECT = 1


def fix_blas_threads():
    """Pin BLAS to a fixed thread count before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source():
    """Put the checkout's ``src/`` first on the path, or exit if it is missing."""
    if not (SRC / "maniafem" / "__init__.py").is_file():
        print(f"error: no maniafem package under {SRC}; run from a checkout",
              file=sys.stderr)
        raise SystemExit(EXIT_NO_SOURCE)
    sys.path.insert(0, str(SRC))


def load_workload(name: str):
    from workloads import WORKLOADS

    return WORKLOADS[name]()


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_probe(workload_name: str, seed: int):
    """Time import plus input generation in this fresh process."""
    t0 = time.perf_counter()
    workload = load_workload(workload_name)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        workload.setup(seed, scratch)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_REPEATS`` fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run(args) -> int:
    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    workload = load_workload(args.workload)
    from tracer import Tracer, instrument, layer_metrics, overhead_estimate

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT))
    try:
        inputs = workload.setup(args.seed, scratch)
        tracer = Tracer() if args.trace else None
        walls: list[float] = []
        ops: list[tuple[str, bool]] = []
        start = time.perf_counter()
        while True:
            with instrument(tracer) if tracer else nullcontext():
                t0 = time.perf_counter()
                out = workload.body(inputs)
                walls.append(time.perf_counter() - t0)
            ops.extend(workload.check(out))
            # stop before a body that would overrun the measurement window
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    wall = statistics.median(walls)
    failed = [label for label, ok in ops if not ok]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "bodies": len(walls), "wall_s_samples": walls, "setup_s_samples": setup_samples,
        "ops": len(ops), "fail_frac": len(failed) / len(ops), "failed_ops": failed,
        "env": environment(),
    }
    if hasattr(workload, "samples_per_body"):
        info["mc_samples_per_s"] = workload.samples_per_body * len(walls) / sum(walls)
        info["max_abs_z"] = max(workload.z_scores(out))

    if tracer:
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        info["spans"] = str(spans_path.relative_to(ROOT))
        metrics = layer_metrics(tracer, len(walls))
        metrics["trace.wall_s"] = (wall, "s")
        metrics["trace.overhead_est"] = (overhead_estimate(tracer, sum(walls)), "frac")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return EXIT_INCORRECT if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper_all", "deep_ladder", "mc_oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    use_checkout_source()
    fix_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
