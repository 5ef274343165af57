import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spaceform_lab

PACKAGE = Path(spaceform_lab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_no_unused_module_imports():
    """Every name a module imports at module level is used in that module.

    ``__init__.py`` is skipped: its imports are the package's re-exports.
    """
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{stmt.lineno} {name}")
    assert not unused, unused


def test_runtime_dependencies():
    """The package needs numpy and orjson at run time; jsonschema is the tests'
    reference for the config validator and comes with the test extra."""
    tomllib = pytest.importorskip("tomllib")        # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}

    assert names(project["dependencies"]) == {"numpy", "orjson"}
    assert "jsonschema" in names(project["optional-dependencies"]["test"])


def test_one_sweep_engine():
    """``_sweep.py`` is the only module that evaluates a triple pointwise or
    checks a sweep's input: every system a triple drives is swept there.
    Only ``cli.py`` builds the triple residual report (``verify-triple``): the
    sweep gate reads its one number without the report."""
    callers = {"eval_at": set(), "check_sweep_input": set(), "triple_residuals": set()}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "eval_at":
                callers["eval_at"].add(path.name)
            name = getattr(func, "attr", getattr(func, "id", None))
            if name in ("check_sweep_input", "triple_residuals"):
                callers[name].add(path.name)
    assert callers == {"eval_at": {"_sweep.py"}, "check_sweep_input": {"_sweep.py"},
                       "triple_residuals": {"cli.py"}}


def test_triples_built_by_their_constructors():
    """Only ``triples.py`` calls ``TripleField(...)`` itself: every other
    module, demo, script and benchmark builds a triple with ``from_samples``
    or ``constant``, the two representations a triple has."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "triples.py"]
    paths += DEMOS + sorted((ROOT / "scripts").glob("*.py"))
    paths += sorted((ROOT / "bench").glob("*.py"))
    callers = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "TripleField":
                    callers.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not callers, callers


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # demos write their exports to the temporary directory
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]


def test_package_runs_without_scipy():
    """Every module imports, a sampled triple evaluates on grid lines (and
    refuses a point off them), and a helix builds, with no scipy module
    loaded; nor is orjson, which ``io.export_csv`` imports when first called,
    or jsonschema, which only the tests use."""
    code = """
import importlib, pkgutil, sys
import numpy as np
import spaceform_lab
for mod in pkgutil.iter_modules(spaceform_lab.__path__):
    importlib.import_module("spaceform_lab." + mod.name)
from spaceform_lab.ambient import SpaceFormSpec
from spaceform_lab.errors import PreconditionFailed
from spaceform_lab.gallery import helix
from spaceform_lab.grid import ParameterGrid
from spaceform_lab.triples import TripleField
grid = ParameterGrid.centered(1.0, 5)
rng = np.random.default_rng(0)
t = TripleField.from_samples(grid, (1, -1, 1), SpaceFormSpec(0.0, 0),
                             rng.normal(size=(3,) + grid.n), rng.normal(size=(3, 3) + grid.n),
                             rng.normal(size=(3,) + grid.n))
for a in range(3):
    pts = np.array([[0.5, 0.0, -0.5], [-1.0, 1.0, 0.5]])
    pts[:, a] = [0.1, 1.3]
    assert np.isfinite(np.concatenate([c.reshape(2, -1) for c in t.eval_at(pts)], 1)).all()
try:
    t.eval_at(np.array([[0.1, 0.2, -0.3]]))
except PreconditionFailed:
    pass
else:
    raise AssertionError("a point off the grid lines evaluated")
helix(2.0, 1.0, np.linspace(0.1, 0.6, 11), amplitude=0.6)
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "orjson", "jsonschema")))
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.strip() == "[]"


def test_benchmark_family_parser_matches_cli(monkeypatch):
    """``bench/workloads.family`` copies ``cli._family``: on every benchmark
    config with a family, both build the same ``PhiFamily``."""
    from spaceform_lab import cli
    from spaceform_lab.io import parse_config

    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    checked = 0
    for workload in workloads.WORKLOADS.values():
        for seed in range(3):
            for doc in workload.configs(workloads.theta_for(seed)).values():
                cfg = parse_config(doc)
                if "family" in (cfg.ribaucour or {}):
                    assert workloads.family(cfg) == cli._family(cfg)
                    checked += 1
    assert checked


def test_demo_digests_against_itself():
    """``scripts/demo_digests.py --against`` this checkout runs every demo
    config twice, each time in its own process, and finds no output byte
    that differs: it prints nothing and exits 0."""
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "demo_digests.py"),
                          "--against", str(ROOT)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout == ""


def test_sweep_ab_against_itself(tmp_path):
    """``scripts/sweep_ab.py`` loads one checkout twice under two names,
    finds equal digests for its four run kinds, times the three phases of
    each marched sweep (only the sampled run's), counts the eval_at calls and spline evaluations of
    each run kind and the state rows each phase marches, prints the sampled
    run's Omega drift and exits 0."""
    out_json = tmp_path / "ab.json"
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep_ab.py"),
                          "--against", str(ROOT), "--n", "5", "--rounds", "1",
                          "--json", str(out_json)], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-2000:]
    assert out.stdout.count(" same") == 4
    result = json.loads(out_json.read_text(encoding="utf-8"))
    assert result["digests_same"]
    # a constant triple's frame and Ribaucour sweeps march nothing, so they
    # have no phase times
    assert {"frame", "ribaucour", "pass"} <= set(result["summary"])
    assert not any(label.startswith(("frame B=", "ribaucour B=")) for label in result["summary"])
    # the sampled run is the 11^3 sampled_retransform pass whatever --n is
    assert {"sampled", "sampled B=1", "sampled B=11", "sampled B=121"} <= set(result["summary"])
    omega = result["omega_drift"]
    assert omega["root"] == omega["against"] and 0 < omega["root"] < 1e-2
    assert f"sampled Omega drift  root {omega['root']!r}" in out.stdout
    steps = ("transform_immersion", "invariant_drift", "transformed_triple", "classify")
    assert {f"pass {step}" for step in steps} <= set(result["summary"])
    for step in steps:
        assert f"\npass {step} " in out.stdout
    # only the sampled run evaluates the triple: two of its three sweeps are
    # on the sampled triple and make every call, one per direction per batch
    # of RK4 substeps, and every call reaches the spline
    evals = result["evals"]
    assert evals["root"] == evals["against"] and set(evals["root"]) == {
        "frame", "ribaucour", "pass", "sampled"}
    for run, counts in evals["root"].items():
        assert (counts["eval_at"] > 0) == (run == "sampled")
        assert f"evals  {run:<10} eval_at root {counts['eval_at']:>6}" in out.stdout
        if run != "sampled":
            assert counts["spline"] == 0
    sampled = evals["root"]["sampled"]
    assert sampled["spline"] == sampled["eval_at"]
    # the constant triple's frame and Ribaucour system are propagated and
    # march none of their 20 and 9 rows; the sampled triple's sweeps march
    # every row, and a run's sweeps add up per phase
    rows = result["rows"]
    assert rows["root"] == rows["against"]
    for lines in (1, 5, 25):
        for run, marched in (("frame", [0, 20]), ("ribaucour", [0, 9]),
                             ("pass", [0, 29])):
            assert rows["root"][f"{run} B={lines}"] == marched
            text = f"{marched[0]}/{marched[1]}"
            assert (f"rows   {run + ' B=' + str(lines):<22} root {text:>7}  "
                    f"against {text:>7}") in out.stdout
    for lines in (1, 11, 121):
        assert rows["root"][f"sampled B={lines}"] == [29, 38]
