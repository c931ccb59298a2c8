"""Time the closed-form seminorm's gap loop and the Monte-Carlo oracle.

    OPENBLAS_NUM_THREADS=1 python tests/time_kernels.py [--calls 5]

For the closed form it prints the median wall time of ``--calls`` calls of
``gagliardo_pc`` at s = 0.2, p = 1.1 on the slopes of the interpolant of
x^(1/3) (the inverse study's input) at N = 4096 and 16384, once with one
worker (``fractional._WORKERS`` = 1) and once with the default worker count.
For the oracle it prints the samples per second of the median of
``--calls`` calls of ``gagliardo_oracle_mc`` with 10^7 samples at s = 0.2,
p = 1.1 on n = 2, 4, 8 and 16 elements, with values uniform in [-1, 1]
from ``default_rng(n)``, on the default worker count.  Run it on two
versions in turn, more than once each, to compare them: the host's speed
drifts.

The file is not named ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from maniafem import fractional  # noqa: E402
from maniafem.fractional import PiecewiseConstant, gagliardo_oracle_mc, gagliardo_pc  # noqa: E402
from maniafem.mesh import Mesh1D, interpolate  # noqa: E402

S, P = 0.2, 1.1
CLOSED_SIZES = (4096, 16384)
ORACLE_SIZES = (2, 4, 8, 16)
ORACLE_SAMPLES = 10**7


def median_seconds(call, calls: int) -> float:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", type=int, default=5)
    args = parser.parse_args(argv)

    default = fractional._WORKERS
    for n in CLOSED_SIZES:
        mesh = Mesh1D(n)
        g = PiecewiseConstant(mesh, interpolate(mesh, lambda x: x ** (1 / 3)).slopes())
        for workers in (1, default):
            fractional._WORKERS = workers
            t = median_seconds(lambda: gagliardo_pc(g, S, P), args.calls)
            print(f"gagliardo_pc        N = {n:5d}  workers {workers}  median {t:.4f} s")
    fractional._WORKERS = default
    for n in ORACLE_SIZES:
        g = PiecewiseConstant(Mesh1D(n), np.random.default_rng(n).uniform(-1.0, 1.0, n))
        t = median_seconds(lambda: gagliardo_oracle_mc(g, S, P, ORACLE_SAMPLES, seed=1),
                           args.calls)
        print(f"gagliardo_oracle_mc n = {n:5d}  workers {default}  "
              f"median {t:.4f} s  {ORACLE_SAMPLES / t:.3g} samples/s")


if __name__ == "__main__":
    main()
