"""Headline experiments: gap demonstration, convergence of minima, rate studies.

Every experiment is deterministic for a fixed configuration, reports are
written without timestamps, and floating-point accumulation order is fixed,
so repeated runs produce byte-identical files.  The studies are listed
once, in ``STUDIES``, which drives both ``run_all`` and the CLI.

Default parameter point: (s, p, alpha) = (0.2, 1.1, 0.035).  This sits
comfortably inside every required regime -- (2/3+s)p = 0.9533 < 1,
sp = 0.22 < 1, alpha < min{(1+s)/6, s/5} = 0.04 -- with alpha near its
ceiling so the clamp is as active as the theory allows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConsistencyError
from .fractional import norm_wkp, seminorm_w1sp
from .functionals import AdmissibleParams
from .mesh import Mesh1D
from .optimize import SolveResult, initial_values, minimize_from, prolongate
from .quadrature import StudyGrid
from .quadrature import graded_grid  # noqa: F401  (kept for perfbench/tracer.py)
from .studies import (
    RateStudy,
    fe_error,
    interp_error,
    ladder_tail,
    make_rate_study,
    power_interpolant,
    recovery_gap,
    slope_mismatch_term,
    value_mismatch_term,
)

__all__ = [
    "ExperimentConfig",
    "StudySpec",
    "STUDIES",
    "solve_ladder",
    "run_gap_demo",
    "run_min_convergence",
    "run_interp_rates",
    "run_inverse_study",
    "run_split_rates",
    "run_recovery",
    "run_study",
    "run_all",
    "write_csv",
]

DEFAULT_MESH_SIZES = (8, 16, 32, 64, 128, 256, 512, 1024)

# pass thresholds used both by run_all and by the acceptance suite
RAW_FLOOR_MIN = 1e-3
# raw and clamped minima within this many ulps of the raw one count as one minimum
GAP_MARGIN_ULPS = 8
MIN_CONV_FINAL_FACTOR = 0.1
INTERP_LP_MIN_ORDER = 1.15
INTERP_W1P_MIN_ORDER = 0.15
INTERP_MIN_R2 = 0.95
INVERSE_MAX_OVER_MEDIAN = 1.5
HILBERT_VARIANT_BETA = 0.4
SPLIT_ORDER_SLACK = 0.1
SPLIT_MIN_R2 = 0.9
RECOVERY_TOL = 1e-3
SPLIT_PROBE_EXPONENT = 0.45

@dataclass(frozen=True)
class ExperimentConfig:
    """One run's five settings, named as the CLI's config keys.  ``params``
    is built from them, so an invalid value raises here."""

    s: float = 0.2
    p: float = 1.1
    alpha: float = 0.035
    mesh_sizes: tuple[int, ...] = DEFAULT_MESH_SIZES
    output_dir: str | os.PathLike = "reports"
    params: AdmissibleParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # validate the values as given, then keep Python numbers for summary.json
        AdmissibleParams(self.s, self.p, self.alpha)
        for name in ("s", "p", "alpha"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "params", AdmissibleParams(self.s, self.p, self.alpha))
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise TypeError(f"output_dir must be a str or os.PathLike, got {self.output_dir!r}")
        sizes = tuple(self.mesh_sizes)
        if any(isinstance(n, bool) or not isinstance(n, (int, np.integer)) for n in sizes):
            raise ValueError(f"mesh sizes must be integers, got {sizes}")
        sizes = tuple(int(n) for n in sizes)
        if not sizes:
            raise ValueError("mesh_sizes must be nonempty")
        if any(n < 2 or n & (n - 1) for n in sizes):
            raise ValueError(f"mesh sizes must be powers of 2 >= 2 for nesting, got {sizes}")
        if list(sizes) != sorted(set(sizes)):
            raise ValueError(f"mesh sizes must be strictly increasing, got {sizes}")
        object.__setattr__(self, "mesh_sizes", sizes)


def solve_ladder(mesh_sizes, alpha: float | None = None) -> list[SolveResult]:
    """Minimizers at ``mesh_sizes``, raw when ``alpha`` is None and clamped
    at level h^(-alpha) on each mesh otherwise, each solve stopped by the
    ``SolveConfig`` defaults.

    A raw mesh is solved once, from the linear ramp.  The clamped ladder
    walks the halving chain of the finest size, coarsest first (n, n/2, ...
    while even and > 2), on which every requested size must lie.  It solves
    each mesh from the interpolant of x^(1/3), then from the prolongated
    previous best, which is kept only if lower by more than 4 spacings
    (ulps) of the first energy.  Nothing is kept between calls.
    """
    if alpha is None:
        return [minimize_from(mesh, initial_values(mesh, "linear_ramp"), alpha=None)
                for mesh in map(Mesh1D, mesh_sizes)]
    chain = [max(mesh_sizes)]
    while chain[-1] > 2 and chain[-1] % 2 == 0:
        chain.append(chain[-1] // 2)
    missing = set(mesh_sizes) - set(chain)
    if missing:
        raise ValueError(f"mesh sizes {sorted(missing)} are not on the halving chain of {chain[0]}")
    best: dict[int, SolveResult] = {}
    prev: SolveResult | None = None
    for n in reversed(chain):
        mesh = Mesh1D(n)
        starts = [initial_values(mesh, "interp_root")]
        if prev is not None:
            starts.append(prolongate(prev.minimizer, mesh).nodal_values)
        kept = None
        for start in starts:
            r = minimize_from(mesh, start, alpha=alpha)
            # starts that reach one minimum end a few ulps apart: rounding
            # must not pick which solve is reported
            if kept is None or r.energy < kept.energy - 4 * np.spacing(kept.energy):
                kept = r
        best[n] = prev = kept
    return [best[n] for n in mesh_sizes]


def run_gap_demo(config: ExperimentConfig) -> dict[str, dict]:
    """Raw minima stay bounded away from zero while clamped minima decay.

    Solves the raw and the clamped ladder once each and returns the summary
    entries ``gap_demo``, ``min_convergence`` (``run_min_convergence``'s
    study of the same clamped minima) and ``recovery_gap``, whose one
    ``run_recovery`` study also gives min_convergence's interpolant energies.
    The gap entry has rows (h, raw minimum, clamped minimum, raw min_pivot),
    the raw floor, the clamped trend order (min_convergence's fitted order),
    the verdict ``gap_passes``, and per mesh the raw solve's stop reason,
    iterations and smallest Hessian pivot (> 0 certifies a strict local minimizer).
    """
    raw = solve_ladder(config.mesh_sizes)
    clamped = solve_ladder(config.mesh_sizes, config.params.alpha)
    passed = gap_passes(raw, clamped)
    recovery = run_recovery(config)
    study = _min_convergence(config.params, clamped, recovery)
    entry = {
        "raw_floor": min(r.energy for r in raw),
        "clamped_trend_order": study.fitted_order,
        "pass": passed,
        "columns": ["h", "value", "clamped_value", "raw_min_pivot"],
        "rows": [[1.0 / n, r.energy, c.energy, r.min_pivot]
                 for n, r, c in zip(config.mesh_sizes, raw, clamped)],
        "raw_solves": [{"n": n, "reason": r.reason, "iters": r.iters, "min_pivot": r.min_pivot}
                       for n, r in zip(config.mesh_sizes, raw)],
    }
    return {"gap_demo": entry, **_tables(study, min_convergence_passes),
            **_tables(recovery, recovery_passes)}


def gap_passes(raw: list[SolveResult], clamped: list[SolveResult]) -> bool:
    """Raw floor >= ``RAW_FLOOR_MIN`` and the finest clamped minimum below it
    by more than ``GAP_MARGIN_ULPS`` ulps of the floor.  Raises
    ``ConsistencyError`` where a clamped minimum exceeds the raw one on its
    mesh by more than that margin of the raw one, or the raw minima increase
    along the ladder.  Where both ladders end on one minimizer they differ by
    rounding alone (up to 5 ulps at alpha = 1/2), so the one margin makes
    such a pair neither a gap nor an inconsistency."""
    raw_e = [r.energy for r in raw]
    for r, c in zip(raw, clamped, strict=True):
        if c.energy > r.energy + GAP_MARGIN_ULPS * np.spacing(r.energy):
            raise ConsistencyError(f"clamped minimum {c.energy} exceeds raw minimum "
                                   f"{r.energy} at N={r.minimizer.mesh.n_elements}")
    if any(b > a for a, b in zip(raw_e, raw_e[1:])):
        raise ConsistencyError(f"raw minima increased along the ladder: {raw_e}")
    floor = min(raw_e)
    return (floor >= RAW_FLOOR_MIN
            and clamped[-1].energy < floor - GAP_MARGIN_ULPS * float(np.spacing(floor)))


def run_min_convergence(config: ExperimentConfig) -> RateStudy:
    """Clamped minimum values over the ladder, with the interpolant energy
    (the sandwich bound) and the W^{1,p} distance to x^(1/3) as diagnostics.

    The distance column is reported, never asserted: the theory guarantees
    convergence of the minimum values, not of the minimizers.
    """
    return _min_convergence(
        config.params, solve_ladder(config.mesh_sizes, config.params.alpha), run_recovery(config))


def _min_convergence(params: AdmissibleParams, results: list[SolveResult],
                     recovery: RateStudy) -> RateStudy:
    """The min_convergence study of the clamped ladder ``results``, with the
    interpolant energies of the ``recovery`` study on the same meshes."""
    rows = []
    for res, (_, energy) in zip(results, recovery.rows, strict=True):
        mesh = res.minimizer.mesh
        _, dist = fe_error(1.0 / 3.0, res.minimizer, StudyGrid(mesh), params.p)
        rows.append((mesh.h, res.energy, energy, dist))
    return make_rate_study(
        "min_convergence", ("h", "value", "interp_energy", "w1p_distance"), rows)


def min_convergence_passes(study: RateStudy) -> bool:
    values = [row[1] for row in study.rows]
    sandwich = all(0.0 <= v <= row[2] for v, row in zip(values, study.rows))
    nonincreasing = all(b <= a for a, b in zip(values, values[1:]))
    return sandwich and nonincreasing and values[-1] <= MIN_CONV_FINAL_FACTOR * values[0]


def _ladder_studies(config: ExperimentConfig, targets, row: Callable) -> dict[str, RateStudy]:
    """One (h, value) RateStudy per target over the ladder, by target;
    ``row(mesh)`` returns each mesh's values in target order."""
    rows = [[] for _ in targets]
    for n in config.mesh_sizes:
        mesh = Mesh1D(n)
        for table, value in zip(rows, row(mesh), strict=True):
            table.append((mesh.h, value))
    return {t: make_rate_study(t, ("h", "value"), r) for t, r in zip(targets, rows)}


def run_interp_rates(config: ExperimentConfig) -> dict[str, RateStudy]:
    """Nodal-interpolation error rates for x^(1/3) in L^p and W^{1,p}."""
    return _ladder_studies(config, ("interp_lp", "interp_w1p"),
                           lambda mesh: interp_error(1.0 / 3.0, StudyGrid(mesh), config.params.p))


def interp_passes(studies: dict[str, RateStudy]) -> bool:
    lp, w1p = studies["interp_lp"], studies["interp_w1p"]
    return (
        lp.fitted_order >= INTERP_LP_MIN_ORDER and lp.fit_r2 >= INTERP_MIN_R2
        and w1p.fitted_order >= INTERP_W1P_MIN_ORDER and w1p.fit_r2 >= INTERP_MIN_R2
    )


def run_inverse_study(config: ExperimentConfig) -> dict[str, RateStudy]:
    """Boundedness of [v_h]_{W^{1+s,p}} / (h^-s ||v_h||_{W^{1,p}}) for the
    interpolant of x^(1/3), plus the p = 2, beta = 0.4 Hilbert-space variant."""
    variants = ((config.params.s, config.params.p), (HILBERT_VARIANT_BETA, 2.0))

    def row(mesh):
        f_h = power_interpolant(1.0 / 3.0, mesh)
        return [seminorm_w1sp(f_h, s, p).value / (mesh.h**-s * norm_wkp(f_h, p))
                for s, p in variants]

    return _ladder_studies(config, ("inverse_ratio", "inverse_ratio_h1"), row)


def inverse_passes(studies: dict[str, RateStudy]) -> bool:
    for study in studies.values():
        values = [row[1] for row in study.rows]
        if max(values) > INVERSE_MAX_OVER_MEDIAN * float(np.median(values)):
            return False
    return True


def run_split_rates(config: ExperimentConfig) -> dict[str, RateStudy]:
    """Decay of the two recovery-split terms, both probed at x^0.45: a
    non-degenerate profile in the same regime.  At x^(1/3) the value term
    would degenerate into the clamped interpolant energy, since v^3 - x
    vanishes there."""
    q, alpha = SPLIT_PROBE_EXPONENT, config.params.alpha

    def row(mesh):
        grid = StudyGrid(mesh)
        return value_mismatch_term(q, grid, alpha), slope_mismatch_term(q, grid, alpha)

    return _ladder_studies(config, ("value_term", "slope_term"), row)


def split_rates_passes(studies: dict[str, RateStudy], params: AdmissibleParams) -> bool:
    value_bound = 1.0 + params.s - 6.0 * params.alpha - SPLIT_ORDER_SLACK
    slope_bound = params.s - 5.0 * params.alpha - SPLIT_ORDER_SLACK
    value_t, slope_t = studies["value_term"], studies["slope_term"]
    tail = [abs(r[1]) for r in ladder_tail(slope_t.rows)]
    decreasing = all(b < a for a, b in zip(tail, tail[1:]))
    return (
        value_t.fitted_order >= value_bound and value_t.fit_r2 >= SPLIT_MIN_R2
        and slope_t.fitted_order >= slope_bound and slope_t.fit_r2 >= SPLIT_MIN_R2
        and decreasing
    )


def run_recovery(config: ExperimentConfig) -> RateStudy:
    """Clamped energy of the interpolated minimizer against its limit 0."""
    studies = _ladder_studies(config, ("recovery_gap",),
                              lambda mesh: [recovery_gap(1.0 / 3.0, mesh, config.params.alpha)])
    return studies["recovery_gap"]


def recovery_passes(study: RateStudy) -> bool:
    values = [row[1] for row in study.rows]
    return all(b < a for a, b in zip(values, values[1:])) and values[-1] <= RECOVERY_TOL


def _tables(result, passes: Callable, *args) -> dict[str, dict]:
    """The summary entries of one RateStudy or a dict of them by target;
    every table shares the verdict ``passes(result, *args)``."""
    studies = result if isinstance(result, dict) else {result.target: result}
    passed = passes(result, *args)
    return {name: {"fitted_order": study.fitted_order, "r2": study.fit_r2, "pass": passed,
                   "columns": list(study.columns), "rows": [list(row) for row in study.rows]}
            for name, study in studies.items()}


@dataclass(frozen=True)
class StudySpec:
    """One study: its key in the summary, its CLI subcommand and help text,
    and ``tables(config)``, which runs it and maps each table it writes (one
    CSV each) to its summary entry: ``columns``, ``rows``, ``pass`` and the
    study's scalar fields."""

    name: str
    command: str
    description: str
    tables: Callable


# The runners are looked up when a study runs, not when this table is built,
# so wrapping a module attribute such as ``run_gap_demo`` reaches every study.
STUDIES = (
    StudySpec("gap_demo", "gap", "Lavrentiev gap, convergence of minima, recovery-sequence gap",
              lambda c: run_gap_demo(c)),
    StudySpec("interp_rates", "interp", "nodal interpolation error rates",
              lambda c: _tables(run_interp_rates(c), interp_passes)),
    StudySpec("inverse_study", "inverse", "fractional inverse-inequality ratio study",
              lambda c: _tables(run_inverse_study(c), inverse_passes)),
    StudySpec("split_rates", "lemmas", "decay rates of the recovery-split terms",
              lambda c: _tables(run_split_rates(c), split_rates_passes, c.params)),
)


def write_csv(path: Path, columns, rows):
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format(x, ".17g") for x in row))
    path.write_text("\n".join(lines) + "\n")


def run_study(spec: StudySpec, config: ExperimentConfig) -> dict[str, dict]:
    """Run one study, write one CSV per entry into the output directory and
    return the entries by name."""
    entries = spec.tables(config)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, entry in entries.items():
        write_csv(out / f"{name}.csv", entry["columns"], entry["rows"])
    return entries


def run_all(config: ExperimentConfig) -> dict:
    """Run every study, write one CSV per table plus a JSON summary, and
    return the bundle.  A study that raises is recorded under its name and
    marks the bundle partial instead of aborting the rest; an OSError is an
    I/O failure, not a failed study, and propagates."""
    summary: dict = {"partial": False, "studies": {}}
    for spec in STUDIES:
        try:
            summary["studies"].update(run_study(spec, config))
        except OSError:
            raise
        except Exception as exc:  # noqa: BLE001 - studies are independent
            summary["partial"] = True
            summary["studies"][spec.name] = {"error": f"{type(exc).__name__}: {exc}",
                                             "pass": False}
    # the init fields but output_dir, so ExperimentConfig(**config) reruns it
    summary["config"] = {f.name: getattr(config, f.name) for f in fields(config)
                         if f.init and f.name != "output_dir"}
    summary["config"]["mesh_sizes"] = list(config.mesh_sizes)
    summary["all_pass"] = all(
        entry.get("pass", False) for entry in summary["studies"].values()
    ) and not summary["partial"]
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # RFC 8259 has no NaN: write a too-short ladder's undefined orders as null
    strict = json.loads(json.dumps(summary), parse_constant=lambda _: None)
    (out / "summary.json").write_text(json.dumps(strict, indent=2, sort_keys=True) + "\n")
    return summary
