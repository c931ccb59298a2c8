"""Command-line front end for solves and convergence studies.

Configuration is a flat ``key = value`` file with ``#`` comments; recognized
keys are s, p, alpha, mesh_sizes, grad_tol, max_iters, seed, output_dir.
Overrides apply after file parsing, last one wins.

Exit status: 0 pass, 1 study fail, 2 usage or parameter validation error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import RegimeError, StudyError, ConsistencyError
from .fractional import seminorm_w1sp
from .functionals import AdmissibleParams, CutoffParams
from .mesh import Mesh1D, interpolate
from .optimize import SolveConfig, minimize_clamped
from .studies import power_fn
from . import experiments as ex

EXIT_OK = 0
EXIT_STUDY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

_LIBRARY = ex.ExperimentConfig()
_DEFAULTS = {
    "s": _LIBRARY.params.s,
    "p": _LIBRARY.params.p,
    "alpha": _LIBRARY.params.alpha,
    "mesh_sizes": list(_LIBRARY.mesh_sizes),
    "grad_tol": _LIBRARY.solver.grad_tol,
    "max_iters": _LIBRARY.solver.max_iters,
    "seed": _LIBRARY.seed,
    "output_dir": _LIBRARY.output_dir,
}

def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in str(text).replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise ValueError(f"mesh_sizes must be comma-separated integers, got {text!r}") from exc


_CONVERTERS = {
    "s": float,
    "p": float,
    "alpha": float,
    "mesh_sizes": _parse_sizes,
    "grad_tol": float,
    "max_iters": int,
    "seed": int,
    "output_dir": str,
}


def parse_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; blank lines ignored."""
    settings = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONVERTERS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        settings[key] = _CONVERTERS[key](value)
    return settings


def _apply_overrides(settings: dict, args) -> dict:
    for pair in args.set or []:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, value = (part.strip() for part in pair.split("=", 1))
        if key not in _CONVERTERS:
            raise ValueError(f"unknown config key {key!r}")
        settings[key] = _CONVERTERS[key](value)
    for key in ("s", "p", "alpha", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "out", None):
        settings["output_dir"] = args.out
    return settings


def _experiment_config(settings: dict, repro: bool) -> ex.ExperimentConfig:
    params = AdmissibleParams(settings["s"], settings["p"], settings["alpha"])
    solver = SolveConfig(grad_tol=settings["grad_tol"], max_iters=settings["max_iters"])
    return ex.ExperimentConfig(
        params=params,
        mesh_sizes=tuple(settings["mesh_sizes"]),
        solver=solver,
        seed=settings["seed"],
        output_dir=settings["output_dir"],
        repro=repro,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maniafem",
        description="Derivative-clamped finite elements for Mania's problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "solve": "minimize the clamped energy on one mesh",
        "gap": "Lavrentiev gap demonstration (raw vs clamped minima)",
        "converge": "convergence of the clamped minimum values",
        "interp": "nodal interpolation error rates",
        "inverse": "fractional inverse-inequality ratio study",
        "lemmas": "decay rates of the recovery-split terms",
        "recovery": "recovery-sequence energy gap",
        "seminorm": "print the fractional seminorm of the interpolated minimizer",
        "all": "run every study and write the summary report",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="flat key=value configuration file")
        cmd.add_argument("--out", help="output directory for reports")
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key (repeatable, last wins)")
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--repro", action="store_true",
                         help="fix accumulation order for byte-identical reports")
        cmd.add_argument("--alpha", type=float)
        cmd.add_argument("--s", type=float)
        cmd.add_argument("--p", type=float)
        if name in ("solve", "seminorm"):
            cmd.add_argument("--mesh", type=int, default=64 if name == "solve" else 16)
    return parser


def _print_rows(columns, rows):
    print("  ".join(f"{c:>14}" for c in columns))
    for row in rows:
        print("  ".join(f"{x:14.6e}" for x in row))


def _cmd_solve(args, settings) -> int:
    params = AdmissibleParams(settings["s"], settings["p"], settings["alpha"])
    mesh = Mesh1D(args.mesh)
    config = SolveConfig(grad_tol=settings["grad_tol"], max_iters=settings["max_iters"])
    result = minimize_clamped(mesh, CutoffParams(params.alpha, mesh.h), config)
    print(f"N = {mesh.n_elements}  h = {mesh.h:.6e}")
    print(f"energy    = {result.energy:.17g}")
    print(f"grad_norm = {result.grad_norm:.3e}")
    print(f"iters     = {result.iters}  stopped on {result.reason}")
    out = Path(settings["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    rows = list(zip(mesh.nodes, result.minimizer.nodal_values))
    ex.write_csv(out / f"solution_N{mesh.n_elements}.csv", ("x", "value"), rows)
    return EXIT_OK


def _cmd_seminorm(args, settings) -> int:
    params = AdmissibleParams(settings["s"], settings["p"], settings["alpha"])
    mesh = Mesh1D(args.mesh)
    fn, _ = power_fn(1.0 / 3.0)
    result = seminorm_w1sp(interpolate(mesh, fn), params.s, params.p)
    print(f"N = {mesh.n_elements}  s = {params.s}  p = {params.p}")
    print(f"[I_h x^(1/3)]_(W^(1+s,p)) = {result.value:.17g}")
    return EXIT_OK


def _emit(settings, name, columns, rows):
    out = Path(settings["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    ex.write_csv(out / f"{name}.csv", columns, rows)


def _cmd_study(args, settings) -> int:
    config = _experiment_config(settings, args.repro)
    command = args.command
    if command == "all":
        summary = ex.run_all(config)
        for name, entry in sorted(summary["studies"].items()):
            status = "pass" if entry.get("pass") else "FAIL"
            order = entry.get("fitted_order", entry.get("clamped_trend_order"))
            extra = f"  order = {order:.3f}" if isinstance(order, float) else ""
            print(f"{name:>18}: {status}{extra}")
        print(f"summary written to {Path(config.output_dir) / 'summary.json'}")
        return EXIT_OK if summary["all_pass"] else EXIT_STUDY_FAIL

    if command == "gap":
        report = ex.run_gap_demo(config)
        rows = report.rows()
        _print_rows(("h", "raw", "clamped", "raw_min_pivot"), rows)
        print(f"raw_floor = {report.raw_floor:.6e}  "
              f"clamped trend order = {report.clamped_trend_order:.3f}")
        _emit(settings, "gap_demo", ex.GAP_COLUMNS, rows)
        return EXIT_OK if ex.gap_passes(report) else EXIT_STUDY_FAIL

    if command == "converge":
        study = ex.run_min_convergence(config)
        passed = ex.min_convergence_passes(study)
    elif command == "interp":
        studies = ex.run_interp_rates(config)
        passed = ex.interp_passes(studies)
    elif command == "inverse":
        studies = ex.run_inverse_study(config)
        passed = ex.inverse_passes(studies)
    elif command == "lemmas":
        studies = ex.run_split_rates(config)
        passed = ex.split_rates_passes(studies, config.params)
    elif command == "recovery":
        study = ex.run_recovery(config)
        passed = ex.recovery_passes(study)
    else:  # pragma: no cover - the parser restricts commands
        raise ValueError(f"unknown command {command!r}")

    if command in ("converge", "recovery"):
        _print_rows(study.columns, study.rows)
        print(f"fitted order = {study.fitted_order:.3f}  r2 = {study.fit_r2:.4f}")
        _emit(settings, study.target, study.columns, study.rows)
    else:
        for study in studies.values():
            print(f"-- {study.target}")
            _print_rows(study.columns, study.rows)
            print(f"fitted order = {study.fitted_order:.3f}  r2 = {study.fit_r2:.4f}")
            _emit(settings, study.target, study.columns, study.rows)
    print("pass" if passed else "FAIL")
    return EXIT_OK if passed else EXIT_STUDY_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        settings = dict(_DEFAULTS)
        if args.config:
            settings.update(parse_config_file(args.config))
        settings = _apply_overrides(settings, args)
        if args.command == "solve":
            return _cmd_solve(args, settings)
        if args.command == "seminorm":
            return _cmd_seminorm(args, settings)
        return _cmd_study(args, settings)
    except RegimeError as exc:
        print(f"parameter validation error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (StudyError, ConsistencyError) as exc:
        print(f"study failed: {exc}", file=sys.stderr)
        return EXIT_STUDY_FAIL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
