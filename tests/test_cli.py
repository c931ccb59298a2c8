"""Command-line interface tests: parsing, exit statuses, outputs."""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from maniafem import cli
from maniafem import experiments as ex
from maniafem.cli import build_parser, main
from maniafem.experiments import ExperimentConfig

FAST = ["--set", "mesh_sizes=8,16,32", "--set", "max_iters=5000"]


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_unknown_flag_is_usage_error(capsys):
    assert main(["gap", "--bogus"]) == 2
    capsys.readouterr()


def test_missing_config_file_is_io_error(capsys):
    assert main(["gap", "--config", "/nonexistent/conf.cfg"]) == 3
    err = capsys.readouterr().err
    assert "I/O error" in err


def test_regime_violation_names_inequality(capsys):
    code = main(["converge", "--set", "s=0.3", "--set", "p=1.4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "(2/3+s)p < 1 violated" in err


def test_unknown_set_key_rejected(capsys):
    assert main(["gap", "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["8,x", "8,3 2"])
def test_non_integer_mesh_size_is_usage_error(capsys, sizes):
    # digit groups are not merged: "3 2" is not 32
    assert main(["converge", "--set", f"mesh_sizes={sizes}"]) == 2
    assert "mesh_sizes" in capsys.readouterr().err


def test_config_keys_are_the_experiment_config_fields():
    names = {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}
    assert set(cli._CONVERTERS) == names
    assert all(set(keys) <= names for keys in cli._UNREAD.values())


def test_inconsistent_study_is_study_failure(tmp_path, capsys, monkeypatch):
    # raw minima that increase along the ladder trip run_gap_demo's check
    def fake_ladder(mesh_sizes, solver, alpha=None):
        return [SimpleNamespace(energy=float(n)) for n in mesh_sizes]

    monkeypatch.setattr(ex, "solve_ladder", fake_ladder)
    assert main(["gap", *FAST, "--out", str(tmp_path / "gap")]) == 1
    assert "study failed: raw minima increased" in capsys.readouterr().err


@pytest.mark.parametrize("command, pair", [
    ("solve", "mesh_sizes=8,32"),
    ("seminorm", "mesh_sizes=8,32"),
    ("seminorm", "grad_tol=1e-6"),
    ("seminorm", "max_iters=3"),
    ("seminorm", "output_dir=reports"),
])
def test_set_of_a_key_the_subcommand_does_not_read_is_rejected(tmp_path, capsys, command, pair):
    args = [command, "--mesh", "8", "--set", pair]
    if command == "solve":
        args += ["--out", str(tmp_path / "sol")]
    assert main(args) == 2
    assert repr(pair.split("=")[0]) in capsys.readouterr().err
    assert not (tmp_path / "sol").exists()


def test_config_file_stays_shared_across_subcommands(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mesh_sizes = 8,16\nmax_iters = 4000\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["seminorm", "--mesh", "8", "--config", str(cfg)]) == 0
    assert main(["solve", "--mesh", "8", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "solution_N8.csv").exists()


@pytest.mark.parametrize("pair", ["grad_tol=inf", "grad_tol=nan", "max_iters=0"])
def test_solver_config_that_disables_the_solver_is_rejected(tmp_path, capsys, pair):
    # grad_tol=inf would pass the gates with the interpolants reported as minima
    args = ["converge", "--set", pair, "--set", "mesh_sizes=8,16,32",
            "--out", str(tmp_path / "conv")]
    assert main(args) == 2
    assert pair.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "conv").exists()


def test_malformed_set_pair_rejected(capsys):
    assert main(["gap", "--set", "s0.3"]) == 2
    capsys.readouterr()


def test_solve_writes_solution(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["solve", "--mesh", "16", "--set", "alpha=0.035", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "energy" in text
    assert (out / "solution_N16.csv").exists()


def test_solve_on_a_single_element_is_usage_error(tmp_path, capsys):
    # the clamp h^(-alpha) needs h < 1
    assert main(["solve", "--mesh", "1", "--out", str(tmp_path / "sol")]) == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not (tmp_path / "sol").exists()


def test_solve_prints_the_converge_study_value(tmp_path, capsys):
    # solve and the study share one continuation ladder, so the clamped
    # minimum at N = 64 is the same number to the last digit
    assert main(["converge", "--set", "mesh_sizes=8,16,32,64", "--out", str(tmp_path)]) == 0
    last_row = (tmp_path / "min_convergence.csv").read_text().splitlines()[-1]
    capsys.readouterr()
    assert main(["solve", "--mesh", "64", "--out", str(tmp_path)]) == 0
    energy_line = next(line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("energy"))
    assert energy_line.split("=")[1].strip() == last_row.split(",")[1]


def test_seminorm_prints_value(capsys):
    code = main(["seminorm", "--mesh", "16"])
    assert code == 0
    out = capsys.readouterr().out
    value = float(out.strip().splitlines()[-1].split("=")[-1])
    assert value > 0


def test_out_is_offered_only_where_something_is_written(tmp_path, capsys):
    # seminorm only prints, so --out is a usage error there, not a no-op
    assert main(["seminorm", "--mesh", "16", "--out", str(tmp_path / "sem")]) == 2
    assert "--out" in capsys.readouterr().err
    assert not (tmp_path / "sem").exists()
    assert main(["solve", "--mesh", "8", "--out", str(tmp_path / "sol")]) == 0
    capsys.readouterr()
    assert (tmp_path / "sol" / "solution_N8.csv").exists()


def test_gap_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# reduced ladder\n"
        "mesh_sizes = 8,16\n"
        "max_iters = 4000   # keep the run quick\n"
        f"output_dir = {tmp_path / 'reports'}\n"
    )
    code = main(["gap", "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "reports" / "gap_demo.csv").exists()
    assert "raw_floor" in capsys.readouterr().out


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("meshes = 8\n")
    assert main(["gap", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_converge_study_passes(tmp_path, capsys):
    out = tmp_path / "conv"
    code = main(["converge", *FAST, "--out", str(out)])
    assert code == 0
    assert (out / "min_convergence.csv").exists()
    assert "pass" in capsys.readouterr().out


def test_all_writes_summary_and_passes(tmp_path, capsys):
    out = tmp_path / "bundle"
    code = main(["all", *FAST, "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["all_pass"]
    assert summary["config"]["mesh_sizes"] == [8, 16, 32]


@pytest.mark.parametrize("command,csv_name", [
    ("interp", "interp_lp.csv"),
    ("inverse", "inverse_ratio.csv"),
    ("lemmas", "slope_term.csv"),
    ("gap", "gap_demo.csv"),
    ("converge", "min_convergence.csv"),
    ("recovery", "recovery_gap.csv"),
])
def test_remaining_studies_run_and_emit(tmp_path, capsys, command, csv_name):
    out = tmp_path / command
    code = main([command, *FAST, "--out", str(out)])
    assert code == 0
    assert (out / csv_name).exists()
    assert "pass" in capsys.readouterr().out


def test_subcommands_come_from_the_study_table():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {"solve", "seminorm", "all"} | {s.command for s in ex.STUDIES}


def test_repro_runs_are_byte_identical(tmp_path, capsys):
    fast = ["--set", "mesh_sizes=8,16", "--set", "max_iters=2000"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["recovery", *fast, "--out", str(a)]) == 0
    assert main(["recovery", *fast, "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "recovery_gap.csv").read_bytes() == (b / "recovery_gap.csv").read_bytes()


def test_overrides_last_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.01\nmesh_sizes = 8,16\nmax_iters = 2000\n")

    def recovery_csv(name, *sets):
        out = tmp_path / name
        args = ["recovery", "--config", str(cfg), "--out", str(out)]
        for pair in sets:
            args += ["--set", pair]
        assert main(args) == 0
        return (out / "recovery_gap.csv").read_bytes()

    both = recovery_csv("both", "alpha=0.02", "alpha=0.035")
    capsys.readouterr()
    assert both == recovery_csv("last", "alpha=0.035")
    assert both != recovery_csv("first", "alpha=0.02")


def test_removed_parameter_shorthands_are_usage_errors(capsys):
    assert main(["converge", "--alpha", "0.03"]) == 2
    assert "--alpha" in capsys.readouterr().err
    # prefixes of --set are not matched either
    for prefix in ("--s", "--se"):
        assert main(["seminorm", prefix, "s=0.25"]) == 2
        assert prefix in capsys.readouterr().err
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for name, cmd in sub.choices.items():
        flags = {flag for action in cmd._actions for flag in action.option_strings}
        assert not flags & {"--s", "--p", "--alpha"}, name


def test_every_subcommand_validates_the_whole_config_file(tmp_path, capsys):
    # solve reads no mesh_sizes, yet an invalid ladder in its file is rejected
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh_sizes = 8,12\n")
    assert main(["solve", "--mesh", "8", "--config", str(cfg),
                 "--out", str(tmp_path / "sol")]) == 2
    assert "mesh sizes must be powers of 2" in capsys.readouterr().err
    assert not (tmp_path / "sol").exists()


def test_all_uses_the_library_solver_budget(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh_sizes = 8,16,32\n")
    code = main(["all", "--config", str(cfg), "--out", str(tmp_path / "reports")])
    assert code == 0
    capsys.readouterr()
    summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
    library = ExperimentConfig().solver
    assert summary["config"]["max_iters"] == library.max_iters
    assert summary["config"]["grad_tol"] == library.grad_tol
