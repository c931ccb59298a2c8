"""Command-line front end for solves and convergence studies.

Configuration is a flat ``key = value`` file with ``#`` comments.  Its keys
are ``ExperimentConfig``'s fields s, p, alpha, mesh_sizes and output_dir,
and ``ExperimentConfig(**summary["config"])`` rebuilds an ``all`` run but
its output_dir; every solve stops by the ``SolveConfig`` defaults.  Each
``--set key=value`` is applied after the file, in order, so the last one
wins, and ``--out`` sets output_dir last.  Every subcommand builds one
``ExperimentConfig`` from the keys set, so an unset key keeps its default
and the whole file is validated even where a key goes unread.  A file is
shared across subcommands, but ``--set`` of a key the subcommand does not
read is a usage error (``solve`` reads no mesh_sizes; ``seminorm`` only s,
p and alpha).

Exit status: 0 pass, 1 study fail, 2 usage or parameter validation error,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ConsistencyError, RegimeError
from .fractional import seminorm_w1sp
from .mesh import Mesh1D
from .studies import power_interpolant
from . import experiments as ex

EXIT_OK = 0
EXIT_STUDY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

_STUDIES = {spec.command: spec for spec in ex.STUDIES}
# Keys a subcommand never reads: overriding one would have no effect.
_UNREAD = {
    "solve": ("mesh_sizes",),
    "seminorm": ("mesh_sizes", "output_dir"),
}


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValueError(f"mesh_sizes must be comma-separated integers, got {text!r}") from exc


# each key is parsed as the type of its default
_CONVERTERS = {**{f.name: type(f.default) for f in fields(ex.ExperimentConfig) if f.init},
               "mesh_sizes": _parse_sizes}


def _apply(settings: dict, pair: str, where: str) -> str:
    """Set the key of one ``key = value`` pair in ``settings`` and return it;
    errors name ``where`` the pair came from."""
    key, sep, value = (part.strip() for part in pair.partition("="))
    if not sep:
        raise ValueError(f"{where}: expected 'key = value', got {pair!r}")
    if key not in _CONVERTERS:
        raise ValueError(f"{where}: unknown config key {key!r}")
    settings[key] = _CONVERTERS[key](value)
    return key


def _experiment_config(args) -> ex.ExperimentConfig:
    """The config file, then each ``--set`` and ``--out``, over the library
    defaults, validated as one ``ExperimentConfig``."""
    settings = {}
    if args.config:
        text = Path(args.config).read_text()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                _apply(settings, line, f"{args.config}:{lineno}")
    for pair in args.set or []:
        key = _apply(settings, pair, "--set")
        if key in _UNREAD.get(args.command, ()):
            raise ValueError(f"maniafem {args.command} does not read config key {key!r}")
    if getattr(args, "out", None):
        settings["output_dir"] = args.out
    return ex.ExperimentConfig(**settings)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maniafem",
        description="Derivative-clamped finite elements for Mania's problem.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "solve": "clamped minimizer on one mesh, by the studies' continuation ladder",
        **{command: spec.description for command, spec in _STUDIES.items()},
        "seminorm": "print the fractional seminorm of the interpolated minimizer",
        "all": "run every study and write the summary report",
    }
    for name, help_text in descriptions.items():
        # no prefix matching: --s must not run as --set
        cmd = sub.add_parser(name, help=help_text, allow_abbrev=False)
        cmd.add_argument("--config", help="flat key=value configuration file")
        if name != "seminorm":  # it only prints
            cmd.add_argument("--out", help="output directory for reports")
        cmd.add_argument("--set", action="append", metavar="KEY=VALUE",
                         help="override a config key (repeatable, last wins)")
        if name in ("solve", "seminorm"):
            cmd.add_argument("--mesh", type=int, default=64 if name == "solve" else 16)
    return parser


def _print_rows(columns, rows):
    print("  ".join(f"{c:>14}" for c in columns))
    for row in rows:
        print("  ".join(f"{x:14.6e}" for x in row))


def _cmd_solve(args, config) -> int:
    mesh = Mesh1D(args.mesh)
    [result] = ex.solve_ladder((mesh.n_elements,), config.params.alpha)
    print(f"N = {mesh.n_elements}  h = {mesh.h:.6e}")
    print(f"energy    = {result.energy:.17g}")
    print(f"grad_norm = {result.grad_norm:.3e}")
    print(f"iters     = {result.iters}  stopped on {result.reason}")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = list(zip(mesh.nodes, result.minimizer.nodal_values))
    ex.write_csv(out / f"solution_N{mesh.n_elements}.csv", ("x", "value"), rows)
    return EXIT_OK


def _cmd_seminorm(args, config) -> int:
    mesh = Mesh1D(args.mesh)
    result = seminorm_w1sp(power_interpolant(1.0 / 3.0, mesh), config.s, config.p)
    print(f"N = {mesh.n_elements}  s = {config.s}  p = {config.p}")
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
        config = _experiment_config(args)
        if args.command == "solve":
            return _cmd_solve(args, config)
        if args.command == "seminorm":
            return _cmd_seminorm(args, config)
        if args.command == "all":
            return _cmd_all(config)
        return _cmd_study(_STUDIES[args.command], config)
    except RegimeError as exc:
        print(f"parameter validation error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConsistencyError as exc:
        print(f"study failed: {exc}", file=sys.stderr)
        return EXIT_STUDY_FAIL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
