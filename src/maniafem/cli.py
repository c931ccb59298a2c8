"""Command-line front end for solves and convergence studies.

Configuration is a flat ``key = value`` file with ``#`` comments; recognized
keys are s, p, alpha, mesh_sizes, grad_tol, max_iters, output_dir.
Overrides apply after file parsing, last one wins.  A file is shared across
subcommands, but ``--set`` of a key the subcommand does not read is a usage
error (``solve`` reads no mesh_sizes; ``seminorm`` only s, p and alpha).

Exit status: 0 pass, 1 study fail, 2 usage or parameter validation error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import RegimeError, StudyError, ConsistencyError
from .fractional import seminorm_w1sp
from .functionals import AdmissibleParams
from .mesh import Mesh1D, interpolate
from .optimize import SolveConfig
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
    "output_dir": _LIBRARY.output_dir,
}
_STUDIES = {spec.command: spec for spec in ex.STUDIES}
# Keys a subcommand never reads: overriding one would have no effect.
_UNREAD = {
    "solve": ("mesh_sizes",),
    "seminorm": ("mesh_sizes", "grad_tol", "max_iters", "output_dir"),
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
        if key in _UNREAD.get(args.command, ()):
            raise ValueError(f"maniafem {args.command} does not read config key {key!r}")
        settings[key] = _CONVERTERS[key](value)
    for key in ("s", "p", "alpha"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if getattr(args, "out", None):
        settings["output_dir"] = args.out
    return settings


def _experiment_config(settings: dict) -> ex.ExperimentConfig:
    params = AdmissibleParams(settings["s"], settings["p"], settings["alpha"])
    solver = SolveConfig(grad_tol=settings["grad_tol"], max_iters=settings["max_iters"])
    return ex.ExperimentConfig(
        params=params,
        mesh_sizes=tuple(settings["mesh_sizes"]),
        solver=solver,
        output_dir=settings["output_dir"],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maniafem",
        description="Derivative-clamped finite elements for Mania's problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "solve": "clamped minimizer on one mesh, by the studies' continuation ladder",
        **{command: spec.description for command, spec in _STUDIES.items()},
        "seminorm": "print the fractional seminorm of the interpolated minimizer",
        "all": "run every study and write the summary report",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="flat key=value configuration file")
        if name != "seminorm":  # it only prints
            cmd.add_argument("--out", help="output directory for reports")
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key (repeatable, last wins)")
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
    [result] = ex.solve_ladder((mesh.n_elements,), config, params.alpha)
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


def _cmd_all(config) -> int:
    summary = ex.run_all(config)
    for name, entry in sorted(summary["studies"].items()):
        status = "pass" if entry.get("pass") else "FAIL"
        order = entry.get("fitted_order", entry.get("clamped_trend_order"))
        extra = f"  order = {order:.3f}" if isinstance(order, float) else ""
        print(f"{name:>18}: {status}{extra}")
    print(f"summary written to {Path(config.output_dir) / 'summary.json'}")
    return EXIT_OK if summary["all_pass"] else EXIT_STUDY_FAIL


def _cmd_study(spec: ex.StudySpec, config) -> int:
    """Each table's rows and scalar fields, then the study's verdict."""
    entries = ex.run_study(spec, config)
    for name, entry in entries.items():
        print(f"-- {name}")
        _print_rows(entry["columns"], entry["rows"])
        print("  ".join(f"{key} = {value:.6g}"
                        for key, value in entry.items() if isinstance(value, float)))
    passed = all(entry["pass"] for entry in entries.values())
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
        config = _experiment_config(settings)
        if args.command == "all":
            return _cmd_all(config)
        return _cmd_study(_STUDIES[args.command], config)
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
