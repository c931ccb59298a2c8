"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q perfbench

They show that a corrupted result is counted as a failed operation, that
self times exclude child spans, and that the benchmark refuses to run
without the package's sources.
"""

import dataclasses
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from maniafem import experiments, optimize  # noqa: E402
from maniafem.fractional import SeminormResult  # noqa: E402
from maniafem.mesh import Mesh1D  # noqa: E402
from tracer import COVERED, END, START, Tracer, instrument, layer_metrics  # noqa: E402


def failed(ops):
    return [label for label, ok in ops if not ok]


@pytest.fixture
def seed_summary():
    """The parts of run_all's summary the paper_all check reads, at seed values."""
    ref = workloads.PaperAll().reference
    studies = {name: {"pass": True} for name in (
        "gap_demo", "min_convergence", "interp_lp", "interp_w1p", "inverse_ratio",
        "inverse_ratio_h1", "value_term", "slope_term", "recovery_gap")}
    studies["gap_demo"]["rows"] = [
        [1.0 / n, raw, clamped]
        for n, raw, clamped in zip(ref["mesh_sizes"], ref["raw"], ref["clamped"])]
    return {"studies": studies, "config": {"mesh_sizes": list(ref["mesh_sizes"])}}


def test_paper_all_accepts_seed_values(seed_summary):
    ops = workloads.PaperAll().check(seed_summary)
    assert len(ops) == 6 + 2 * 8 + 1
    assert failed(ops) == []


def test_paper_all_accepts_lower_energies(seed_summary):
    rows = seed_summary["studies"]["gap_demo"]["rows"]
    for row in rows:
        if row[0] != 1.0 / 64:
            row[1] *= 0.99
        row[2] *= 0.5
    assert failed(workloads.PaperAll().check(seed_summary)) == []


def scale(row, column, factor):
    return lambda s: s["studies"]["gap_demo"]["rows"][row].__setitem__(
        column, s["studies"]["gap_demo"]["rows"][row][column] * factor)


@pytest.mark.parametrize("corrupt, expected", [
    (scale(7, 1, 1 + 2e-8), ["raw_ref:1024"]),
    (scale(2, 2, 1 + 2e-8), ["clamped_ref:32"]),
    (scale(3, 1, 1 - 1e-8), ["raw_n64"]),
    (lambda s: s["studies"]["recovery_gap"].__setitem__("pass", False), ["pass:recovery_gap"]),
])
def test_paper_all_counts_corrupted_results(seed_summary, corrupt, expected):
    corrupt(seed_summary)
    assert failed(workloads.PaperAll().check(seed_summary)) == expected


def test_paper_all_counts_a_failed_study_against_every_reference(seed_summary):
    seed_summary["studies"]["gap_demo"] = {"error": "ConsistencyError: x", "pass": False}
    assert len(failed(workloads.PaperAll().check(seed_summary))) == 1 + 2 * 8 + 1


@pytest.fixture(scope="module")
def small_ladder():
    config = experiments.ExperimentConfig(mesh_sizes=(8, 16, 32, 64, 128, 256))
    return workloads.DeepLadder().body(config)


def test_deep_ladder_check_passes_and_catches_corruption(small_ladder):
    workload = workloads.DeepLadder()
    assert failed(workload.check(small_ladder)) == []
    bad = dict(small_ladder)
    rows = list(bad["recovery"].rows)
    rows[-1] = (rows[-1][0], 10.0 * rows[0][1])
    bad["recovery"] = dataclasses.replace(bad["recovery"], rows=tuple(rows))
    assert failed(workload.check(bad)) == ["pass:recovery"]


def test_mc_oracle_gate_catches_a_biased_estimate():
    workload = workloads.McOracle()
    trials = workload.setup(7, Path("."))
    g = trials[0][0]
    exact = workloads.gagliardo_pc(g, workloads.MC_S, workloads.MC_P).value
    # a 1e7-sample estimate has a relative standard error near 2e-4
    good = SeminormResult(exact * (1 + 1e-4), workloads.MC_S, workloads.MC_P,
                          "monte_carlo", exact * 1e-4)
    biased = dataclasses.replace(good, value=exact * (1 + 1e-3))
    assert failed(workload.check([(g, good)])) == []
    assert failed(workload.check([(g, biased)])) == ["z:n=2"]


def test_mc_oracle_inputs_follow_the_seed():
    workload = workloads.McOracle()
    a, b, c = (workload.setup(seed, Path(".")) for seed in (3, 3, 4))
    assert [g.mesh.n_elements for g, _ in a] == list(workloads.MC_SIZES)
    assert all((ga.values == gb.values).all() and sa == sb
               for (ga, sa), (gb, sb) in zip(a, b))
    assert any((ga.values != gc.values).any() for (ga, _), (gc, _) in zip(a, c))


def test_self_time_excludes_children_and_leaves():
    tracer = Tracer()
    leaf = tracer.leaf("energy", "optimize", lambda x: time.sleep(0.02), 10)
    child = tracer.span("child", lambda: time.sleep(0.03))

    def outer_body():
        time.sleep(0.01)
        child()
        leaf(None)

    tracer.span("outer", outer_body)()
    outer, inner = tracer.spans
    assert (outer[0], inner[0]) == ("outer", "child")
    outer_s = (outer[END] - outer[START]) * 1e-9
    self_s = (outer[END] - outer[START] - outer[COVERED]) * 1e-9
    assert outer_s >= 0.06 and 0.01 <= self_s < 0.03
    assert tracer.leaves[("energy", "optimize")][:1] == [1]


def test_instrument_counts_a_solve_and_restores_originals():
    original = optimize.minimize_from
    tracer = Tracer()
    mesh = Mesh1D(8)
    with instrument(tracer):
        experiments.minimize_from(mesh, optimize.initial_values(mesh, "interp_root"))
    assert optimize.minimize_from is original
    assert experiments.minimize_from is original
    m = layer_metrics(tracer, bodies=1)
    assert m["optimize.solves"][0] == 1
    assert m["functionals.energy_evals"][0] >= m["optimize.iters"][0] + 1
    assert 0 < m["optimize.step_accept_frac"][0] <= 1


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "deep_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
