"""The benchmark's workloads: inputs made from a seed, a timed body, checks.

Each workload is one closed-loop caller in one process.  ``setup`` builds the
inputs the program receives, ``body`` is the timed call into the library, and
``check`` turns the body's outputs into named pass/fail operations that feed
``attempted`` and ``failed``.  See README.md for why each workload exists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from maniafem import experiments, fractional
from maniafem.fractional import PiecewiseConstant, gagliardo_pc
from maniafem.mesh import Mesh1D

# A faster solver may not stop earlier at a higher energy.
ENERGY_SLACK = 1e-8
RAW_N64 = 0.02841611749
RAW_N64_RTOL = 1e-9

DEEP_LADDER = tuple(2**k for k in range(3, 15))  # 8 ... 16384

MC_S, MC_P = 0.2, 1.1
MC_SAMPLES = 10**7
# n is fixed per trial (not drawn) so a run's work does not depend on its seed
MC_SIZES = (2, 4, 8, 16)
# Criterion 7 gates each trial at |z| <= 3, a 0.27 % false alarm per trial.
# The benchmark draws fresh trials for every seed, several hundred per
# evaluation, so the gate is Bonferroni-corrected to a 1e-5 per-trial false
# alarm; |z| > 3 is still reported.
MC_Z_GATE = 4.42


class PaperAll:
    """``run_all`` on the default ladder N = 8 ... 1024, as users run it."""

    name = "paper_all"

    def __init__(self):
        # ladder minima of the baseline commit, one-sided references
        self.reference = json.loads(Path(__file__).with_name("reference.json").read_text())

    def setup(self, seed: int, scratch: Path):
        # ExperimentConfig.seed only reaches summary.json: this workload is
        # deterministic and ignores the benchmark seed.
        return experiments.ExperimentConfig(output_dir=str(scratch / self.name))

    def body(self, config):
        return experiments.run_all(config)

    def check(self, summary) -> list[tuple[str, bool]]:
        studies = summary["studies"]
        ops = [(f"pass:{name}", studies.get(name, {}).get("pass") is True)
               for name in ("gap_demo", "min_convergence", "interp_lp", "inverse_ratio",
                            "value_term", "recovery_gap")]
        rows = studies.get("gap_demo", {}).get("rows")
        sizes = summary.get("config", {}).get("mesh_sizes")
        ref = self.reference
        if rows is None or sizes != ref["mesh_sizes"]:
            rows = [[None, float("inf"), float("inf")]] * len(ref["mesh_sizes"])
        for n, row, raw, clamped in zip(ref["mesh_sizes"], rows, ref["raw"], ref["clamped"]):
            ops.append((f"raw_ref:{n}", row[1] <= raw * (1.0 + ENERGY_SLACK)))
            ops.append((f"clamped_ref:{n}", row[2] <= clamped * (1.0 + ENERGY_SLACK)))
        raw64 = rows[ref["mesh_sizes"].index(64)][1]
        ops.append(("raw_n64", abs(raw64 - RAW_N64) <= RAW_N64_RTOL * RAW_N64))
        return ops


class DeepLadder:
    """Every non-gap study on N = 8 ... 16384; clamped solves only."""

    name = "deep_ladder"

    def setup(self, seed: int, scratch: Path):
        return experiments.ExperimentConfig(mesh_sizes=DEEP_LADDER)

    def body(self, config):
        return {
            "config": config,
            "min_convergence": experiments.run_min_convergence(config),
            "interp": experiments.run_interp_rates(config),
            "inverse": experiments.run_inverse_study(config),
            "split": experiments.run_split_rates(config),
            "recovery": experiments.run_recovery(config),
        }

    def check(self, out) -> list[tuple[str, bool]]:
        return [
            ("pass:min_convergence", experiments.min_convergence_passes(out["min_convergence"])),
            ("pass:interp", experiments.interp_passes(out["interp"])),
            ("pass:inverse", experiments.inverse_passes(out["inverse"])),
            ("pass:split", experiments.split_rates_passes(out["split"], out["config"].params)),
            ("pass:recovery", experiments.recovery_passes(out["recovery"])),
        ]


class McOracle:
    """The Monte-Carlo seminorm oracle, drawn the way criterion 7 draws it."""

    name = "mc_oracle"
    samples_per_body = MC_SAMPLES * len(MC_SIZES)

    def setup(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        return [(PiecewiseConstant(Mesh1D(n), rng.uniform(-1.0, 1.0, n)),
                 int(rng.integers(2**32)))
                for n in MC_SIZES]

    def body(self, trials):
        return [(g, fractional.gagliardo_oracle_mc(g, MC_S, MC_P, MC_SAMPLES, seed=mc_seed))
                for g, mc_seed in trials]

    def z_scores(self, out) -> list[float]:
        return [abs(gagliardo_pc(g, MC_S, MC_P).value - mc.value) / mc.est_error
                if mc.est_error > 0 else float("inf")
                for g, mc in out]

    def check(self, out) -> list[tuple[str, bool]]:
        return [(f"z:n={g.mesh.n_elements}", z <= MC_Z_GATE)
                for (g, _), z in zip(out, self.z_scores(out))]


WORKLOADS = {w.name: w for w in (PaperAll, DeepLadder, McOracle)}
