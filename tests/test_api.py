"""The package's public surface: the README's quick start runs as written,
and the package root imports exactly the 31 pinned names: what the studies
and the CLI use, plus ``gagliardo_oracle_mc``, the Monte-Carlo oracle that
cross-checks the closed-form seminorm.  The study terms take the exponent q
of their profile x^q, so no profile/derivative helper is exported."""

import ast
import re
from pathlib import Path

import maniafem

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "ConsistencyError", "EvaluationError", "RegimeError",
    "FeFunction", "Mesh1D", "interpolate",
    "StudyGrid",
    "AdmissibleParams", "energy_clamped",
    "PiecewiseConstant", "SeminormResult", "gagliardo_oracle_mc", "gagliardo_pc",
    "norm_wkp", "seminorm_w1sp",
    "SolveConfig", "SolveResult", "minimize_from",
    "RateStudy", "interp_error", "recovery_gap",
    "slope_mismatch_term", "value_mismatch_term",
    "ExperimentConfig", "run_all", "run_gap_demo", "run_interp_rates",
    "run_inverse_study", "run_split_rates", "run_min_convergence", "run_recovery",
}


def quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start(), "README.md quick start", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 3
    energy, converged = printed[0].split()
    assert float(energy) >= 0.0 and converged == "True"


def test_package_root_imports_exactly_the_public_names():
    tree = ast.parse((ROOT / "src" / "maniafem" / "__init__.py").read_text())
    names = [alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) == len(PUBLIC) == 31
    assert set(names) == PUBLIC
    assert all(hasattr(maniafem, name) for name in PUBLIC)
