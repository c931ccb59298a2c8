"""Experiment orchestration tests on a reduced mesh ladder."""

import gc
import json
from types import SimpleNamespace

import numpy as np
import pytest

from maniafem import experiments as ex
from maniafem import fractional
from maniafem.cli import main
from maniafem.errors import ConsistencyError, RegimeError
from maniafem.fractional import (
    PiecewiseConstant,
    gagliardo_oracle_mc,
    gagliardo_pc,
    norm_wkp,
    seminorm_w1sp,
)
from maniafem.functionals import AdmissibleParams, energy_clamped
from maniafem.mesh import Mesh1D, interpolate
from maniafem.optimize import SolveConfig, initial_values, minimize_from
from maniafem.quadrature import StudyGrid
from maniafem.studies import (
    interp_error,
    slope_mismatch_term,
    value_mismatch_term,
)


def small_config(tmp_path, sizes=(8, 16, 32, 64)) -> ex.ExperimentConfig:
    return ex.ExperimentConfig(
        mesh_sizes=sizes,
        max_iters=5000,
        output_dir=str(tmp_path / "reports"),
    )


class TestExperimentConfig:
    def test_defaults_are_admissible(self):
        config = ex.ExperimentConfig()
        assert config.mesh_sizes == ex.DEFAULT_MESH_SIZES
        assert (2 / 3 + config.params.s) * config.params.p < 1

    @pytest.mark.parametrize("sizes", [
        (8, 12), (6,), (16, 8), (8, 8, 16), (),
        # sizes that int() would truncate or parse into a valid ladder
        (8.9, 16.2), (8.0, 16), (8, np.float64(16)), ("8", 16), (True, 16),
    ])
    def test_rejects_bad_ladders(self, sizes):
        with pytest.raises(ValueError):
            ex.ExperimentConfig(mesh_sizes=sizes)

    @pytest.mark.parametrize("sizes", [(8.9, 16.2), ("8", 16), (True, 16)])
    def test_non_integer_sizes_are_named(self, sizes):
        with pytest.raises(ValueError, match=r"must be integers, got \(") as info:
            ex.ExperimentConfig(mesh_sizes=sizes)
        assert repr(sizes[0]) in str(info.value)

    @pytest.mark.parametrize("field, value, error", [
        ("s", 0.5, RegimeError),
        ("grad_tol", float("inf"), ValueError),
        ("max_iters", 0, ValueError),
        # validated before they are stored as Python numbers, so int() and
        # float() cannot turn them into valid settings
        ("max_iters", 2.5, ValueError),
        ("max_iters", np.float64(200.0), ValueError),
        ("max_iters", True, ValueError),
        ("s", True, RegimeError),
    ])
    def test_invalid_settings_raise_at_construction(self, field, value, error):
        with pytest.raises(error, match=field):
            ex.ExperimentConfig(**{field: value})

    def test_numeric_strings_are_not_parsed(self):
        # float("0.035") would accept it; parsing is the CLI's job
        with pytest.raises(TypeError):
            ex.ExperimentConfig(alpha="0.035")

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        config = ex.ExperimentConfig(s=np.float64(0.2), p=np.float32(1.1),
                                     alpha=np.float32(0.035), grad_tol=np.float32(1e-9),
                                     max_iters=np.int64(200))
        names = ("s", "p", "alpha", "grad_tol", "max_iters")
        assert [type(getattr(config, n)) for n in names] == [float] * 4 + [int]
        assert config.params == AdmissibleParams(config.s, config.p, config.alpha)
        assert type(config.params.alpha) is float and type(config.solver.max_iters) is int

    def test_solver_defaults_are_the_solve_config_defaults(self):
        assert ex.ExperimentConfig().solver == SolveConfig()

    def test_accepts_numpy_integer_sizes(self):
        config = ex.ExperimentConfig(mesh_sizes=np.array([8, 16, 32], dtype=np.int32))
        assert config.mesh_sizes == (8, 16, 32)
        assert all(type(n) is int for n in config.mesh_sizes)


class TestGapDemo:
    def test_small_ladder_report(self, tmp_path):
        config = small_config(tmp_path)
        tables = ex.run_gap_demo(config)
        assert list(tables) == ["gap_demo", "min_convergence", "recovery_gap"]
        report = tables["gap_demo"]
        # the convergence and recovery tables of the same clamped minima, bitwise
        study, recovery = ex.run_min_convergence(config), ex.run_recovery(config)
        for entry, want in ((tables["min_convergence"], study),
                            (tables["recovery_gap"], recovery)):
            assert entry["columns"] == list(want.columns)
            assert entry["rows"] == [list(row) for row in want.rows]
            assert (entry["fitted_order"], entry["r2"]) == (want.fitted_order, want.fit_r2)
        assert report["clamped_trend_order"] == study.fitted_order
        assert [row[2] for row in report["rows"]] == [row[1] for row in study.rows]
        raw = [row[1] for row in report["rows"]]
        clamped = [row[2] for row in report["rows"]]
        assert all(np.isfinite(raw)) and all(np.isfinite(clamped))
        assert all(e >= 0 for e in raw + clamped)
        assert all(b <= a for a, b in zip(raw, raw[1:]))
        assert all(e <= r for e, r in zip(clamped, raw))
        assert report["raw_floor"] == min(raw)
        assert report["pass"]

    @pytest.mark.parametrize("raw, clamped, needle", [
        ((0.03, 0.02), (0.01, 0.025), "clamped minimum 0.025 exceeds raw minimum 0.02 at N=16"),
        ((0.02, 0.03), (0.01, 0.01), "raw minima increased"),
    ])
    def test_inconsistent_minima_raise(self, tmp_path, monkeypatch, raw, clamped, needle):
        def fake_ladder(mesh_sizes, solver, alpha=None):
            return [SimpleNamespace(energy=e) for e in (raw if alpha is None else clamped)]

        monkeypatch.setattr(ex, "solve_ladder", fake_ladder)
        with pytest.raises(ConsistencyError, match=needle):
            ex.run_gap_demo(small_config(tmp_path, sizes=(8, 16)))


def recorded_solves(monkeypatch):
    """Route the ladder's solves through a recorder of (N, result) pairs."""
    solves = []
    solve = ex.minimize_from

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        solves.append((args[0].n_elements, result))
        return result

    monkeypatch.setattr(ex, "minimize_from", recording)
    return solves


class TestLadderSolves:
    def test_clamped_ladder_reaches_the_reference_basin(self):
        # from the prolongated N = 8 minimizer, a step past the first kink
        # is what keeps Newton out of a worse basin (2.926e-5) at N = 16
        results = ex.solve_ladder((8, 16), SolveConfig(), alpha=0.035)
        assert results[-1].energy <= 2.62278544796067e-05 * (1 + 1e-8)
        assert all(r.reason == "grad_tol" for r in results)

    def test_every_raw_solve_is_a_certified_minimum(self, monkeypatch):
        solves = recorded_solves(monkeypatch)
        ex.solve_ladder(ex.DEFAULT_MESH_SIZES, SolveConfig())
        # the halving chain is N = 2 ... 1024: two fixed seeds on each of its
        # 10 meshes plus the prolongated previous best above N = 2
        assert [n for n, _ in solves] == [2, 2] + [2 ** k for k in range(2, 11)
                                                   for _ in range(3)]
        for n, result in solves:
            assert result.reason == "grad_tol", (n, result.reason)
            assert result.min_pivot > 0.0, (n, result.min_pivot)

    @pytest.mark.parametrize("alpha", [None, 0.035])
    def test_sparse_ladder_matches_the_consecutive_one(self, alpha):
        # both walk the halving chain of N = 128, so the minima agree bitwise
        sparse = ex.solve_ladder((8, 32, 128), SolveConfig(), alpha)
        full = dict(zip((2, 4, 8, 16, 32, 64, 128),
                        ex.solve_ladder((2, 4, 8, 16, 32, 64, 128), SolveConfig(), alpha)))
        for n, result in zip((8, 32, 128), sparse):
            assert result.energy == full[n].energy
            assert np.array_equal(result.minimizer.nodal_values, full[n].minimizer.nodal_values)

    def test_keeps_the_lowest_candidate_per_mesh_up_to_4_ulps(self, monkeypatch):
        solves = recorded_solves(monkeypatch)
        results = ex.solve_ladder((4, 8), SolveConfig())
        for n, result in zip((4, 8), results):
            candidates = [r for m, r in solves if m == n]
            kept = [r is result for r in candidates].index(True)
            assert min(r.energy for r in candidates) >= (
                result.energy - 4 * np.spacing(result.energy))
            # the earliest such candidate: every one before it is higher
            assert all(r.energy > result.energy for r in candidates[:kept])

    @pytest.mark.parametrize("ulps, kept", [(0, 0), (1, 0), (4, 0), (5, 1), (400, 1)])
    def test_later_start_must_win_by_more_than_4_ulps(self, monkeypatch, ulps, kept):
        # N = 2 has no previous mesh, so its two raw seeds are the only starts
        energy = 0.06639759382528483
        energies = [energy, energy - ulps * np.spacing(energy)]
        results = iter([SimpleNamespace(energy=e) for e in energies])
        monkeypatch.setattr(ex, "minimize_from", lambda *args: next(results))
        [result] = ex.solve_ladder((2,), SolveConfig())
        assert result.energy == energies[kept]

    def test_rejects_sizes_off_the_halving_chain(self):
        with pytest.raises(ValueError, match="halving chain"):
            ex.solve_ladder((6, 8), SolveConfig())


class TestLadderSharing:
    def test_run_all_solves_each_ladder_once_per_call(self, tmp_path, monkeypatch):
        solves = recorded_solves(monkeypatch)
        config = ex.ExperimentConfig(output_dir=str(tmp_path / "reports"))
        # the raw ladder makes 29 solves and the clamped one 19; the gap study
        # builds min_convergence from its clamped results (67 solves if the
        # clamped ladder were solved again)
        summary = ex.run_all(config)
        assert len(solves) == 48
        assert summary["all_pass"]
        gap = summary["studies"]["gap_demo"]
        conv = summary["studies"]["min_convergence"]
        assert [row[2] for row in gap["rows"]] == [row[1] for row in conv["rows"]]
        # recovery_gap reports min_convergence's interpolant energies, which
        # equal run_recovery's bitwise
        recovery = summary["studies"]["recovery_gap"]
        assert [row[1] for row in recovery["rows"]] == [row[2] for row in conv["rows"]]
        assert recovery["rows"] == [list(row) for row in ex.run_recovery(config).rows]
        # nothing is kept between calls
        ex.run_all(config)
        assert len(solves) == 96
        ex.run_min_convergence(config)
        assert len(solves) == 115


# (h, value) runners with their tables in target order
LADDER_RUNNERS = {
    "run_interp_rates": ("interp_lp", "interp_w1p"),
    "run_inverse_study": ("inverse_ratio", "inverse_ratio_h1"),
    "run_split_rates": ("value_term", "slope_term"),
    "run_recovery": ("recovery_gap",),
}


class TestLadderStudies:
    # names perfbench/tracer.py wraps in experiments' namespace
    TRACED = ("minimize_from", "seminorm_w1sp", "norm_wkp", "graded_grid", "interp_error",
              "value_mismatch_term", "slope_mismatch_term", "recovery_gap")

    def test_runners_reach_study_terms_through_module_globals(self, tmp_path, monkeypatch):
        calls = {}
        for name in self.TRACED:
            def counting(*args, _name=name, _fn=getattr(ex, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ex, name, counting)
        config = small_config(tmp_path, sizes=(8, 16))
        # each term once per mesh and variant
        expected = {
            "run_min_convergence": {"recovery_gap": 2},
            "run_interp_rates": {"interp_error": 2},
            "run_inverse_study": {"seminorm_w1sp": 4, "norm_wkp": 4},
            "run_split_rates": {"value_mismatch_term": 2, "slope_mismatch_term": 2},
            "run_recovery": {"recovery_gap": 2},
        }
        for runner, counts in expected.items():
            calls.clear()
            getattr(ex, runner)(config)
            solves = calls.pop("minimize_from", 0)
            assert calls == counts, runner
            assert (solves > 0) == (runner == "run_min_convergence"), runner
        # the gap study takes its recovery table and min_convergence's
        # interpolant energies from one run_recovery call
        recoveries = []
        run_recovery = ex.run_recovery
        monkeypatch.setattr(ex, "run_recovery", lambda c: recoveries.append(c) or run_recovery(c))
        calls.clear()
        [gap] = [spec for spec in ex.STUDIES if spec.command == "gap"]
        gap.tables(config)
        assert recoveries == [config]
        assert calls.pop("minimize_from") > 0
        assert calls == {"recovery_gap": 2}

    @pytest.mark.parametrize("runner", sorted(LADDER_RUNNERS))
    def test_rows_depend_only_on_their_mesh(self, tmp_path, runner):
        def tables(sizes):
            result = getattr(ex, runner)(small_config(tmp_path, sizes=sizes))
            return result if isinstance(result, dict) else {result.target: result}

        sparse = tables((8, 32, 128))
        full = tables((8, 16, 32, 64, 128))
        assert list(sparse) == list(full) == list(LADDER_RUNNERS[runner])
        for target, study in sparse.items():
            assert study.target == target
            assert study.columns == ("h", "value")
            by_h = dict(full[target].rows)
            assert [h for h, _ in study.rows] == [1 / 8, 1 / 32, 1 / 128]
            for h, value in study.rows:
                assert value == by_h[h]


class TestMinConvergence:
    def test_small_ladder_study(self, tmp_path):
        config = small_config(tmp_path)
        study = ex.run_min_convergence(config)
        assert study.columns == ("h", "value", "interp_energy", "w1p_distance")
        values = [row[1] for row in study.rows]
        assert all(0.0 <= row[1] <= row[2] for row in study.rows)
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert ex.min_convergence_passes(study)


class TestSplitRates:
    def test_value_term_probes_the_slope_profile(self, tmp_path):
        # at x^(1/3) the value term would be min_convergence's interp_energy
        # again, since v^3 - x vanishes there
        config = small_config(tmp_path, sizes=(8, 16, 32))
        value_t = ex.run_split_rates(config)["value_term"]
        assert ex.SPLIT_PROBE_EXPONENT == 0.45
        for n, (h, value) in zip(config.mesh_sizes, value_t.rows):
            mesh = Mesh1D(n)
            term = value_mismatch_term(ex.SPLIT_PROBE_EXPONENT, StudyGrid(mesh), 0.035)
            assert value == term > 0.0
            interp_energy = energy_clamped(interpolate(mesh, lambda x: np.power(x, 1 / 3)), 0.035)
            assert abs(value - interp_energy) > 0.1 * interp_energy


class TestRunAll:
    def test_bundle_files_and_determinism(self, tmp_path):
        config = small_config(tmp_path, sizes=(8, 16, 32))
        summary = ex.run_all(config)
        assert not summary["partial"]
        assert summary["all_pass"]
        expected = {
            "gap_demo", "min_convergence", "interp_lp", "interp_w1p",
            "inverse_ratio", "inverse_ratio_h1", "value_term", "slope_term",
            "recovery_gap",
        }
        assert set(summary["studies"]) == expected
        out = tmp_path / "reports"
        for name in expected:
            assert (out / f"{name}.csv").exists()
        with open(out / "summary.json") as fh:
            loaded = json.load(fh)
        assert loaded["all_pass"]
        assert loaded["config"]["mesh_sizes"] == [8, 16, 32]

        # byte-identical rerun into a second directory, from the summary alone
        config2 = ex.ExperimentConfig(**loaded["config"], output_dir=str(tmp_path / "again"))
        ex.run_all(config2)
        # output_dir is not part of the summary, so every file must agree
        for name in sorted(f"{n}.csv" for n in expected) + ["summary.json"]:
            assert (out / name).read_bytes() == (tmp_path / "again" / name).read_bytes()

    def test_numpy_scalar_settings_reach_summary_json(self, tmp_path):
        # numpy scalars in the config once ended run_all in a TypeError from
        # json.dumps, after every CSV but before summary.json was written
        config = ex.ExperimentConfig(mesh_sizes=(8, 16), alpha=np.float32(0.035),
                                     grad_tol=np.float32(1e-9), max_iters=np.int64(200),
                                     output_dir=str(tmp_path / "reports"))
        ex.run_all(config)
        loaded = json.loads((tmp_path / "reports" / "summary.json").read_text())
        assert ex.ExperimentConfig(**loaded["config"], output_dir=config.output_dir) == config
        ex.run_all(ex.ExperimentConfig(**loaded["config"], output_dir=str(tmp_path / "again")))
        for path in sorted((tmp_path / "reports").iterdir()):
            assert path.read_bytes() == (tmp_path / "again" / path.name).read_bytes(), path.name

    def test_short_ladder_summary_is_strict_json(self, tmp_path):
        # two meshes leave no order fit its 3 usable rows: the NaN orders are
        # written as null, while the returned summary keeps them
        summary = ex.run_all(small_config(tmp_path, sizes=(8, 16)))

        def reject(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        text = (tmp_path / "reports" / "summary.json").read_text()
        loaded = json.loads(text, parse_constant=reject)
        nan_orders = [name for name, entry in summary["studies"].items()
                      if np.isnan(entry.get("fitted_order", 0.0))]
        assert len(nan_orders) == 8
        for name in nan_orders:
            assert loaded["studies"][name]["fitted_order"] is None
        assert np.isnan(summary["studies"]["gap_demo"]["clamped_trend_order"])
        assert loaded["studies"]["gap_demo"]["clamped_trend_order"] is None
        assert loaded["config"]["mesh_sizes"] == [8, 16]

    def test_gap_demo_records_raw_solves(self, tmp_path):
        config = small_config(tmp_path, sizes=(8, 16, 32))
        summary = ex.run_all(config)
        gap = summary["studies"]["gap_demo"]
        assert gap["columns"] == ["h", "value", "clamped_value", "raw_min_pivot"]
        assert [s["n"] for s in gap["raw_solves"]] == [8, 16, 32]
        for row, solve in zip(gap["rows"], gap["raw_solves"]):
            assert solve["reason"] == "grad_tol"
            assert solve["iters"] > 0
            assert solve["min_pivot"] == row[3] > 0.0
        header = (tmp_path / "reports" / "gap_demo.csv").read_text().splitlines()[0]
        assert header == "h,value,clamped_value,raw_min_pivot"

    def test_failing_study_leaves_a_partial_bundle(self, tmp_path, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("boom")

        # the patch reaches run_all only if STUDIES looks runners up at call
        # time, which the perfbench tracer relies on
        monkeypatch.setattr(ex, "run_interp_rates", broken)
        config = small_config(tmp_path, sizes=(8, 16, 32))
        summary = ex.run_all(config)
        assert summary["studies"]["interp_rates"]["error"] == "RuntimeError: boom"
        assert summary["partial"] and not summary["all_pass"]
        others = {"gap_demo", "min_convergence", "inverse_ratio", "inverse_ratio_h1",
                  "value_term", "slope_term", "recovery_gap"}
        assert set(summary["studies"]) == others | {"interp_rates"}
        out = tmp_path / "reports"
        for name in others:
            assert summary["studies"][name]["pass"], name
            assert (out / f"{name}.csv").exists()
        assert not (out / "interp_lp.csv").exists()
        assert json.loads((out / "summary.json").read_text())["partial"]
        cli_out = tmp_path / "cli"
        assert main(["all", "--set", "mesh_sizes=8,16,32", "--out", str(cli_out)]) == 1
        assert "interp_rates: FAIL" in capsys.readouterr().out

    def test_io_failure_is_raised_not_recorded_as_a_failed_study(self, tmp_path, capsys):
        # a CSV that cannot be written is the CLI's I/O failure (exit 3), not
        # a study failure with a partial summary
        config = small_config(tmp_path, sizes=(8, 16, 32))
        out = tmp_path / "reports"
        (out / "interp_lp.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            ex.run_all(config)
        assert not (out / "summary.json").exists()
        assert main(["all", "--set", "mesh_sizes=8,16,32", "--out", str(out)]) == 3
        assert "I/O error" in capsys.readouterr().err

    def test_inconsistent_gap_study_writes_neither_table(self, tmp_path, monkeypatch):
        # raw minima that increase along the ladder: all three tables come
        # from the gap study's ladders, so none is reported
        def fake_ladder(mesh_sizes, solver, alpha=None):
            return [SimpleNamespace(energy=float(n)) for n in mesh_sizes]

        monkeypatch.setattr(ex, "solve_ladder", fake_ladder)
        summary = ex.run_all(small_config(tmp_path, sizes=(8, 16, 32)))
        assert summary["partial"] and not summary["all_pass"]
        gap = summary["studies"]["gap_demo"]
        assert gap["error"].startswith("ConsistencyError: raw minima increased")
        assert not summary["studies"].keys() & {"min_convergence", "recovery_gap"}
        out = tmp_path / "reports"
        for name in ("gap_demo", "min_convergence", "recovery_gap"):
            assert not (out / f"{name}.csv").exists(), name
        assert (out / "interp_lp.csv").exists()

    def test_csv_round_trip(self, tmp_path):
        config = small_config(tmp_path, sizes=(8, 16, 32))
        ex.run_all(config)
        path = tmp_path / "reports" / "min_convergence.csv"
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["h", "value"]
        for line in lines[1:]:
            for tok in line.split(","):
                assert np.isfinite(float(tok))


class TestStudyPassPredicates:
    def test_inverse_pass_rejects_growth(self):
        from maniafem.studies import make_rate_study

        rows = [(1 / 8, 1.0), (1 / 16, 1.0), (1 / 32, 3.0)]
        bad = {
            "inverse_ratio": make_rate_study(
                "inverse_ratio", ("h", "value"), rows),
        }
        assert not ex.inverse_passes(bad)

    @pytest.mark.parametrize("n_meshes", [4, 5])
    def test_split_pass_checks_decay_on_the_ladder_tail(self, n_meshes):
        from maniafem.studies import RateStudy

        params = AdmissibleParams(0.2, 1.1, 0.035)
        sizes = tuple(8 * 2**k for k in range(n_meshes))

        def studies(slope_values):
            # fits that pass outright, so only the decay check can fail
            def study(target, values):
                rows = tuple(zip((1 / n for n in sizes), values))
                return RateStudy(target, ("h", "value"), rows, 2.0, 1.0)

            return {"value_term": study("value_term", [1.0] * n_meshes),
                    "slope_term": study("slope_term", slope_values)}

        decaying = [0.4 * 0.5**k for k in range(n_meshes)]
        assert ex.split_rates_passes(studies(decaying), params)
        # a rise between the two coarsest meshes: with five meshes it lies
        # before the tail (TAIL_DROP = 2) and is ignored; with four the whole
        # ladder is the tail
        rising = [0.9 * decaying[1]] + decaying[1:]
        assert ex.split_rates_passes(studies(rising), params) == (n_meshes == 5)
        # a rise inside the tail fails either way
        late = decaying[:-1] + [decaying[-2]]
        assert not ex.split_rates_passes(studies(late), params)

    def test_recovery_pass_requires_decay_and_floor(self):
        from maniafem.studies import make_rate_study

        good = make_rate_study(
            "recovery_gap", ("h", "value"), [(1 / 8, 1e-4), (1 / 16, 1e-5), (1 / 32, 1e-6)])
        assert ex.recovery_passes(good)
        stuck = make_rate_study(
            "recovery_gap", ("h", "value"), [(1 / 8, 1e-2), (1 / 16, 5e-3), (1 / 32, 4e-3)])
        assert not ex.recovery_passes(stuck)


def _no_cycle_cases():
    """One ``call(tmp_path)`` param per numeric entry point the sweep checks."""
    alpha = ex.ExperimentConfig().params.alpha
    g = PiecewiseConstant(Mesh1D(16), np.random.default_rng(5).uniform(-1, 1, 16))
    # N = 1024 takes several blocks of gaps, so a worker thread starts
    wide = PiecewiseConstant(Mesh1D(1024), np.random.default_rng(6).uniform(-1, 1, 1024))

    def fe():
        return interpolate(Mesh1D(64), lambda x: np.power(x, 1 / 3))

    def minimize(a):
        mesh = Mesh1D(16)
        return minimize_from(mesh, initial_values(mesh, "interp_root"), alpha=a)

    cases = [
        ("minimize_from_raw", lambda _: minimize(None)),
        ("minimize_from_clamped", lambda _: minimize(alpha)),
        ("solve_ladder", lambda _: ex.solve_ladder((8, 16, 32), SolveConfig())),
        ("run_min_convergence",
         lambda tmp_path: ex.run_min_convergence(small_config(tmp_path, sizes=(8, 16, 32)))),
        ("run_recovery",
         lambda tmp_path: ex.run_recovery(small_config(tmp_path, sizes=(8, 16, 32)))),
        ("gagliardo_pc_p1.1", lambda _: gagliardo_pc(g, 0.2, 1.1)),
        ("gagliardo_pc_p1.1_blocks", lambda _: gagliardo_pc(wide, 0.2, 1.1)),
        ("gagliardo_pc_p2", lambda _: gagliardo_pc(g, 0.2, 2.0)),
        ("seminorm_w1sp", lambda _: seminorm_w1sp(fe(), 0.2, 1.1)),
        ("norm_wkp", lambda _: norm_wkp(fe(), 1.1)),
        ("interp_error", lambda _: interp_error(1 / 3, StudyGrid(Mesh1D(64)), 1.1)),
        ("value_mismatch_term", lambda _: value_mismatch_term(1 / 3, StudyGrid(Mesh1D(64)), alpha)),
        ("slope_mismatch_term", lambda _: slope_mismatch_term(1 / 3, StudyGrid(Mesh1D(64)), alpha)),
        ("gagliardo_oracle_mc", lambda _: gagliardo_oracle_mc(g, 0.2, 1.1, 10**4)),
    ]
    # run_all is left out: the stdlib JSON encoder behind json.dumps(...,
    # indent=2) builds closure cycles of its own
    for spec in ex.STUDIES:
        if spec.name != "gap_demo":
            cases.append((f"run_study_{spec.name}", lambda tmp_path, spec=spec: ex.run_study(
                spec, small_config(tmp_path, sizes=(8, 16, 32)))))
    return [pytest.param(call, id=name) for name, call in cases]


@pytest.mark.parametrize("call", _no_cycle_cases())
def test_entry_point_leaves_no_reference_cycles(call, tmp_path, monkeypatch):
    # memory held in a cycle outlives the call until a full collection.  The
    # first call is a warm-up: numpy's lazy imports (np.fft's on first use)
    # leave one-off stdlib garbage that holds no arrays.  Two workers, so the
    # threaded paths run on a one-CPU host too
    monkeypatch.setattr(fractional, "_WORKERS", 2)
    call(tmp_path)
    gc.collect()
    gc.disable()
    try:
        call(tmp_path)
        assert gc.collect() == 0
    finally:
        gc.enable()
