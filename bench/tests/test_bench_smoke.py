"""Tests of the benchmark itself; not part of the tier-1 suite.

    PYTHONPATH=src python -m pytest -q bench/tests

The smoke run takes about half a minute: every workload at a tenth of its
size, one untraced and one traced run each.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_workloads(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for w in declared["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    for m in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_run_reports_every_declared_metric(declared):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    results = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(results) == 2 * len(declared["workloads"])
    expected = [declared["end_to_end"], declared["per_layer"]] * len(declared["workloads"])
    for result, metrics in zip(results, expected):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in metrics
        }
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_runs_without_the_program_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "network6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_generator_rebuilds_the_acceptance_network():
    from instances import six_node_instance

    seed = workloads.SCENARIO_SEED
    family, S, U, scenarios = six_node_instance(K=600, seed=seed)
    config = workloads.make_config(workloads.WORKLOADS["network6"], 5)
    np.testing.assert_allclose(config["state_set"]["facets"], S.facets, atol=1e-12)
    np.testing.assert_allclose(config["state_set"]["vertices"], S.vertices, atol=1e-12)
    np.testing.assert_array_equal(config["input_set"]["facets"], U.facets)
    box = config["scenarios"]["uniform"]
    assert np.array_equal(
        np.random.default_rng(seed).uniform(box["lower"], box["upper"], size=(600, 12)),
        scenarios.samples,
    )
    A, B = workloads.plant_matrices(config, scenarios.samples[:3])
    for k in range(3):
        A_ref, B_ref = family.instantiate(scenarios.samples[k])
        np.testing.assert_allclose(A[k], A_ref, atol=1e-15)
        np.testing.assert_allclose(B[k], B_ref, atol=1e-15)


def test_inputs_depend_only_on_workload_and_seed():
    for w in workloads.WORKLOADS.values():
        three, four = workloads.make_config(w, 3), workloads.make_config(w, 4)
        assert three == workloads.make_config(w, 3)
        assert three["options"] != four["options"]
        assert {k: v for k, v in three.items() if k != "options"} == {
            k: v for k, v in four.items() if k != "options"
        }


def test_independent_admissibility_agrees_with_the_program():
    from invarcert.config import parse_config
    from invarcert.scenario import is_admissible, solve_affine_policy

    config = workloads.make_config(workloads.WORKLOADS["affine3-k5000"].scaled(0.01), 0)
    cfg = parse_config(config)
    policy = solve_affine_policy(cfg.family, cfg.state_set, cfg.input_set, cfg.scenarios)
    # parameters well outside the training box, so that some draws fail
    deltas = np.random.default_rng(0).uniform(-6.0, 6.0, size=(400, cfg.scenarios.ell))
    mask = checks.admissible(config, policy.gains, policy.offsets, deltas)
    reference = [
        is_admissible(cfg.family, cfg.state_set, cfg.input_set, d, policy.vertex_inputs(d))
        for d in deltas
    ]
    assert mask.tolist() == reference
    assert 0 < mask.sum() < mask.size  # both outcomes occur


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    leaf = t.wrap(lambda: None, "lp_core.solve")
    with t.span("certify"):
        with t.span("scenario.greedy"):
            leaf()
            leaf()
        leaf()
    names, parents, dur, _ = t.arrays()
    assert parents.tolist() == [-1, 0, 1, 1, 0]
    self_s = tracer.self_times(parents, dur)
    assert np.isclose(self_s[1], dur[1] - dur[2] - dur[3])
    assert np.isclose(self_s[0], dur[0] - dur[1] - dur[4])
    greedy = tracer.nearest(names, parents, {"scenario.greedy"})
    assert greedy.tolist() == [-1, 1, 1, 1, -1]
