"""Calibrate the Monte-Carlo oracle's standard error against the closed form.

    python tests/calibrate_oracle.py [--trials 500] [--samples 1000000]

For each p in P = (1.1, 2.0) at s = S = 0.2, trial t draws a piecewise
constant on n = SIZES[t % len(SIZES)] elements, SIZES = (2, 3, 5, 8, 16),
with values uniform in [-1, 1] from ``default_rng(t)``, runs
``gagliardo_oracle_mc`` with ``seed=10_000 + t`` and takes
z = (oracle - closed form) / est_error against ``gagliardo_pc``.  It prints
the mean, standard deviation and max |z| for each p and for each (p, n),
and the median relative standard error est_error / value; each p's line
also gives its wall time and oracle samples per second (the closed forms
included).  A calibrated error estimate reads a mean near 0, a standard
deviation near 1 and, over 500 trials, a max |z| near 3.  The trials depend only on their index, so
two versions of the oracle run on the same data and draws.

The file is not named ``test_*.py``, so pytest does not collect it: the
defaults run 1000 oracle calls of 10^6 samples each.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from maniafem.fractional import PiecewiseConstant, gagliardo_oracle_mc, gagliardo_pc  # noqa: E402
from maniafem.mesh import Mesh1D  # noqa: E402


SIZES = (2, 3, 5, 8, 16)
P = (1.1, 2.0)
S = 0.2


def trial(t: int, p: float, n_samples: int) -> dict:
    n = SIZES[t % len(SIZES)]
    g = PiecewiseConstant(Mesh1D(n), np.random.default_rng(t).uniform(-1.0, 1.0, n))
    closed = gagliardo_pc(g, S, p).value
    mc = gagliardo_oracle_mc(g, S, p, n_samples, seed=10_000 + t)
    return {"n": n, "z": (mc.value - closed) / mc.est_error, "rel_se": mc.est_error / mc.value}


def summary(label: str, rows: list[dict]) -> str:
    z = np.array([row["z"] for row in rows])
    rel = np.median([row["rel_se"] for row in rows])
    return (f"{label:<16} trials {z.size:4d}  z mean {z.mean():+.3f}  sd {z.std(ddof=1):.3f}  "
            f"max|z| {np.abs(z).max():.2f}  median rel. s.e. {rel:.3g}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--samples", type=int, default=10**6)
    args = parser.parse_args(argv)

    for p in P:
        start = time.perf_counter()
        done = [trial(t, p, args.samples) for t in range(args.trials)]
        elapsed = time.perf_counter() - start
        print(summary(f"p = {p:g}", done)
              + f"  ({elapsed:.1f} s, {args.trials * args.samples / elapsed:.3g} samples/s)")
        for n in SIZES:
            print("  " + summary(f"n = {n}", [row for row in done if row["n"] == n]))


if __name__ == "__main__":
    main()
