import json
from pathlib import Path

import numpy as np
import pytest

from invarcert import feasibility
from invarcert.cli import main
from invarcert.config import ConfigError, load_config

from instances import SIX_NODE_EDGES, SIX_NODE_WEIGHTS, six_node_instance, uncertainty_box
from minor_loop import loop_scan


def feasible_config(count=25, beta=1e-4):
    return {
        "schema": 1,
        "system": {
            "network": {
                "edges": [[0, 1], [1, 2]],
                "floating": [0, 2],
                "inputs": [1],
                "nominal_weights": [-0.25, 0.5],
            }
        },
        "state_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
        "input_set": {"box": {"lower": [-1], "upper": [1]}},
        "scenarios": {
            "uniform": {"lower": [-0.35, 0.3], "upper": [-0.15, 0.7]},
            "count": count,
            "seed": 7,
        },
        "beta": beta,
    }


def infeasible_config():
    zero2 = [[0.0, 0.0], [0.0, 0.0]]
    return {
        "schema": 1,
        "system": {
            "affine": {
                "A0": [[2.0, 0.0], [0.0, 2.0]],
                "B0": [[0.0], [0.0]],
                "Ak": [zero2],
                "Bk": [[[0.0], [0.0]]],
            }
        },
        "state_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
        "input_set": {"box": {"lower": [-1], "upper": [1]}},
        "scenarios": {
            "uniform": {"lower": [-1], "upper": [1]},
            "count": 3,
            "seed": 0,
        },
        "beta": 1e-3,
    }


def write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCertify:
    def test_certified_run(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config())
        code = main(["certify", "--config", cfg, "--estimate", "200"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "certified"
        assert report["schema"] == 1
        assert report["certificate"]["K"] == 25
        assert 0 < report["certificate"]["epsilon"] < 1
        assert report["violation_estimate"]["M"] == 200
        assert report["system"]["nominal_spectral_radius"] > 1
        # policy entries are consumable as-is
        gains = np.asarray(report["policy"]["gains"])
        assert gains.shape == (4, 1, 2)

    def test_report_bytes_reproducible(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config())
        main(["certify", "--config", cfg, "--estimate", "100"])
        first = capsys.readouterr().out
        main(["certify", "--config", cfg, "--estimate", "100"])
        second = capsys.readouterr().out
        assert first == second

    def test_infeasible_exit_code_and_diagnostics(self, tmp_path, capsys):
        cfg = write(tmp_path, infeasible_config())
        code = main(["certify", "--config", cfg, "--analyze"])
        out = capsys.readouterr().out
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "infeasible"
        assert report["first_violation"]["sample"] == 0
        assert report["feasibility_analysis"]["passed"] is False

    def test_bad_config_exit_code(self, tmp_path, capsys):
        broken = feasible_config()
        del broken["state_set"]
        cfg = write(tmp_path, broken)
        assert main(["certify", "--config", cfg]) == 1
        assert "error" in capsys.readouterr().err

    def test_dimension_mismatch_is_config_error(self, tmp_path):
        bad = feasible_config()
        bad["input_set"] = {"box": {"lower": [-1, -1], "upper": [1, 1]}}
        cfg = write(tmp_path, bad)
        assert main(["certify", "--config", cfg]) == 1

    def test_uniform_box_of_overflowing_width_is_refused(self, tmp_path, capsys):
        # 1e308 - (-1e308) overflows: refused by name before any draw, with
        # no numpy OverflowError or overflow warning on the way
        wide = feasible_config()
        wide["scenarios"]["uniform"] = {"lower": [-0.35, -1e308], "upper": [-0.15, 1e308]}
        cfg = write(tmp_path, wide)
        assert main(["certify", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: uniform box entry 1 is [-1e+308, 1e+308], whose width is not finite\n"
        )

    def test_report_written_to_out_dir(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config())
        out_dir = tmp_path / "run"
        code = main(["certify", "--config", cfg, "--out", str(out_dir)])
        capsys.readouterr()
        assert code == 0
        assert (out_dir / "report.json").exists()


class TestSimulate:
    def test_simulate_from_certify_report(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config())
        out_dir = tmp_path / "run"
        main(["certify", "--config", cfg, "--out", str(out_dir)])
        capsys.readouterr()
        sim_dir = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--config", cfg,
                "--policy", str(out_dir / "report.json"),
                "--nominal",
                "--init", "vertices",
                "--horizon", "10",
                "--out", str(sim_dir),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert len(summary["trajectories"]) == 4
        assert summary["max_gauge_overall"] <= 1.0 + 1e-6
        csvs = sorted(sim_dir.glob("trajectory_*.csv"))
        assert len(csvs) == 4
        header = csvs[0].read_text().splitlines()[0]
        assert header == "t,x_1,x_2,u_1,gauge"

    def test_simulate_random_inits_and_sample(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config())
        out_dir = tmp_path / "run"
        main(["certify", "--config", cfg, "--out", str(out_dir)])
        capsys.readouterr()
        code = main(
            [
                "simulate",
                "--config", cfg,
                "--policy", str(out_dir / "report.json"),
                "--sample=-0.2,0.5",
                "--init", "random:12",
                "--horizon", "6",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        summary = json.loads(out)
        assert summary["delta"] == [-0.2, 0.5]
        assert len(summary["trajectories"]) == 12

    def test_missing_policy_file(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config())
        code = main(["simulate", "--config", cfg, "--policy", "/nonexistent.json"])
        assert code == 1


class TestEpsilonCommand:
    def test_single_value(self, capsys):
        code = main(["epsilon", "--K", "600", "--beta", "1e-6", "--h", "29"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["epsilon"] == pytest.approx(0.2089, abs=5e-4)
        assert payload["invariance_probability"] == pytest.approx(0.7911, abs=5e-4)

    def test_table_dump(self, capsys):
        code = main(["epsilon", "--K", "5", "--beta", "0.01", "--table"])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "h,epsilon"
        assert len(out) == 7  # header + h = 0..5
        assert out[-1].endswith("1.0")


class TestFeasibilityCommand:
    def test_pass_and_witnesses(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config(count=5))
        code = main(
            ["feasibility", "--config", cfg, "--sample", "0", "--witnesses"]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["feasible"] is True
        assert len(report["feasibility_analysis"]["witnesses"]) == 4

    def test_all_samples(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config(count=5))
        code = main(["feasibility", "--config", cfg])
        report = json.loads(capsys.readouterr().out)
        assert code == 0 and report["passed"] is True

    def test_failure_exit_code(self, tmp_path, capsys):
        cfg = write(tmp_path, infeasible_config())
        code = main(["feasibility", "--config", cfg])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["passed"] is False


class TestConfigParsing:
    def test_scenario_file_relative_to_config(self, tmp_path):
        np.savetxt(tmp_path / "samples.csv", np.full((4, 2), 0.4), delimiter=",")
        payload = feasible_config()
        payload["scenarios"] = {"file": "samples.csv"}
        cfg = write(tmp_path, payload)
        config = load_config(cfg)
        assert config.scenarios.K == 4

    def test_explicit_polytope_spec(self, tmp_path):
        payload = feasible_config()
        payload["input_set"] = {
            "facets": [[1.0], [-1.0]],
            "vertices": [[1.0], [-1.0]],
        }
        cfg = write(tmp_path, payload)
        config = load_config(cfg)
        assert config.input_set.facet_count == 2

    def test_unknown_system_kind(self, tmp_path):
        payload = feasible_config()
        payload["system"] = {"mystery": {}}
        cfg = write(tmp_path, payload)
        with pytest.raises(ConfigError):
            load_config(cfg)


class TestMoreConfig:
    def test_table_system_with_index_scenarios(self, tmp_path):
        np.savetxt(tmp_path / "indices.csv", np.array([[0.0], [1.0], [0.0]]), delimiter=",")
        payload = {
            "schema": 1,
            "system": {
                "table": {
                    "pairs": [
                        {"A": [[0.5]], "B": [[1.0]]},
                        {"A": [[0.8]], "B": [[1.0]]},
                    ]
                }
            },
            "state_set": {"box": {"lower": [-1], "upper": [1]}},
            "input_set": {"box": {"lower": [-1], "upper": [1]}},
            "scenarios": {"file": "indices.csv"},
            "beta": 0.01,
        }
        cfg = write(tmp_path, payload)
        config = load_config(cfg)
        assert config.family.ell == 1 and config.scenarios.K == 3
        A, _ = config.family.instantiate(config.scenarios.samples[1])
        assert A[0, 0] == 0.8

    def test_table_pair_with_a_one_dimensional_b(self, tmp_path, capsys):
        # a B given as one column loads as that column and certifies alike
        pairs = [{"A": [[0.5, 0.1], [0.0, 0.6]], "B": [[1.0], [0.5]]}]
        pairs.append({"A": [[0.7, 0.0], [0.1, 0.4]], "B": [1.0, 0.25]})
        payload = {
            "system": {"table": {"pairs": pairs}},
            "state_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
            "input_set": {"box": {"lower": [-1], "upper": [1]}},
            "scenarios": {"file": "indices.csv"},
            "beta": 0.01,
        }
        np.savetxt(tmp_path / "indices.csv", np.array([[0.0], [1.0], [1.0]]), delimiter=",")
        family = load_config(write(tmp_path, payload)).family
        assert family.B.shape == (2, 2, 1)
        assert family.B[1].tolist() == [[1.0], [0.25]]
        reports = []
        for B in ([1.0, 0.25], [[1.0], [0.25]]):
            pairs[1]["B"] = B
            assert main(["certify", "--config", write(tmp_path, payload)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_beta_override(self, tmp_path, capsys):
        cfg = write(tmp_path, feasible_config(beta=1e-2))
        main(["certify", "--config", cfg, "--beta", "1e-8"])
        report = json.loads(capsys.readouterr().out)
        assert report["beta"] == 1e-8
        assert report["certificate"]["beta"] == 1e-8


def test_estimate_requires_a_distribution(tmp_path, capsys):
    # file-based scenarios carry no sampling distribution, so asking for a
    # Monte Carlo estimate is a configuration error
    np.savetxt(tmp_path / "w.csv", np.tile([-0.25, 0.5], (6, 1)), delimiter=",")
    payload = feasible_config()
    payload["scenarios"] = {"file": "w.csv"}
    cfg = write(tmp_path, payload)
    assert main(["certify", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["certify", "--config", cfg, "--estimate", "100"]) == 1
    assert "distribution" in capsys.readouterr().err


def test_estimate_without_distribution_fails_before_synthesis(
    tmp_path, capsys, monkeypatch
):
    from invarcert import scenario

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran before the estimate was rejected")

    monkeypatch.setattr(scenario, "solve_affine_policy", no_synthesis)
    np.savetxt(tmp_path / "w.csv", np.tile([-0.25, 0.5], (6, 1)), delimiter=",")
    payload = feasible_config()
    payload["scenarios"] = {"file": "w.csv"}
    cfg = write(tmp_path, payload)
    assert main(["certify", "--config", cfg, "--estimate", "100"]) == 1
    assert capsys.readouterr().err == (
        "error: --estimate needs a sampling distribution; "
        "file-based scenarios have none\n"
    )


def test_non_finite_scenario_row_rejected(tmp_path, capsys):
    rows = np.tile([-0.25, 0.5], (50, 1))
    rows[17, 1] = np.nan
    np.savetxt(tmp_path / "w.csv", rows, delimiter=",")
    payload = feasible_config()
    payload["scenarios"] = {"file": "w.csv"}
    cfg = write(tmp_path, payload)
    assert main(["certify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sample 17 is not finite: [-0.25, nan]\n"


def test_non_numeric_scenario_cell_names_the_file(tmp_path, capsys):
    (tmp_path / "w.csv").write_text("w1,w2\n-0.25,0.5\n-0.25,x\n")
    payload = feasible_config()
    payload["scenarios"] = {"file": "w.csv"}
    assert main(["certify", "--config", write(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path / "w.csv") in captured.err
    assert "could not convert string 'x'" in captured.err


@pytest.mark.parametrize(
    "text, cell, line, column",
    [
        ("w1,w2\n-0.25,0.5\n-0.25,x\n", "x", 3, 2),
        ("-0.25,0.5\n# note\n\n y ,0.5 # z\n", "y", 4, 1),
    ],
    ids=["after-header", "after-comment-and-blank"],
)
def test_non_numeric_scenario_cell_names_its_line(text, cell, line, column, tmp_path, capsys):
    # line numbers count the header, blank and comment lines of the file
    (tmp_path / "w.csv").write_text(text)
    payload = feasible_config()
    payload["scenarios"] = {"file": "w.csv"}
    assert main(["certify", "--config", write(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"could not convert string '{cell}' to float at line {line}, column {column}"
    assert captured.err == f"error: {tmp_path / 'w.csv'}: {message}\n"


def test_scenario_file_not_utf8_named_with_its_role(tmp_path, capsys, monkeypatch):
    from invarcert import lp_core

    def no_lp(lp):
        raise AssertionError("an LP ran before the scenarios file was refused")

    monkeypatch.setattr(lp_core, "solve", no_lp)
    monkeypatch.setattr(lp_core, "solve_dual", no_lp)
    bad = tmp_path / "w.csv"
    bad.write_bytes(b"\xff-0.25,0.5\n-0.25,0.5\n")
    payload = feasible_config()
    payload["scenarios"] = {"file": "w.csv"}
    assert main(["certify", "--config", write(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    reason = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert captured.err == f"error: scenarios file {bad} is not UTF-8: {reason}\n"


@pytest.mark.parametrize(
    "text, line, count, first, width",
    [("1,2\n3\n", 2, 1, 1, 2), ("w1,w2\n-0.25,0.5\n\n# note\n-0.2,0.5,1\n", 5, 3, 2, 2)],
    ids=["short-row", "long-row-after-header"],
)
def test_ragged_scenario_file_names_the_line(text, line, count, first, width, tmp_path, capsys):
    # line numbers count the header, blank and comment lines of the file
    (tmp_path / "w.csv").write_text(text)
    payload = feasible_config()
    payload["scenarios"] = {"file": "w.csv"}
    assert main(["certify", "--config", write(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"line {line} has {count} field(s) but line {first} has {width}"
    assert captured.err == f"error: {tmp_path / 'w.csv'}: {message}\n"


@pytest.mark.parametrize(
    "content, reason",
    [
        (b"not json", "Expecting value: line 1 column 1 (char 0)"),
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ],
    ids=["not-json", "not-utf8"],
)
@pytest.mark.parametrize("role", ["config", "policy"])
def test_unreadable_json_file_named_with_its_role(role, content, reason, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    cfg = write(tmp_path, feasible_config())
    argv = {
        "config": ["certify", "--config", str(bad)],
        "policy": ["simulate", "--config", cfg, "--policy", str(bad)],
    }[role]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {role} file {bad} is not UTF-8 JSON: {reason}\n"


@pytest.mark.parametrize("role", ["config", "policy"])
def test_json_file_with_a_byte_order_mark(role, tmp_path, capsys):
    # a UTF-8 byte-order mark is read past, as in a scenarios CSV
    files = dict(zip(["config", "policy"], _certified_policy(tmp_path, capsys)))
    plain = ["simulate", "--config", files["config"], "--policy", files["policy"]]
    marked = tmp_path / "marked.json"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(files[role]).read_bytes())
    files[role] = str(marked)
    argv = ["simulate", "--config", files["config"], "--policy", files["policy"]]
    assert main(argv + ["--horizon", "5"]) == 0
    with_mark = capsys.readouterr().out
    assert main(plain + ["--horizon", "5"]) == 0
    assert with_mark == capsys.readouterr().out


def table_index_config(tmp_path, indices):
    """Config of a two-entry table family whose scenarios are ``indices``."""
    np.savetxt(tmp_path / "indices.csv", np.reshape(indices, (-1, 1)), delimiter=",")
    payload = {
        "schema": 1,
        "system": {
            "table": {
                "pairs": [
                    {"A": [[0.5]], "B": [[1.0]]},
                    {"A": [[0.8]], "B": [[1.0]]},
                ]
            }
        },
        "state_set": {"box": {"lower": [-1], "upper": [1]}},
        "input_set": {"box": {"lower": [-1], "upper": [1]}},
        "scenarios": {"file": "indices.csv"},
        "beta": 0.01,
    }
    return write(tmp_path, payload)


def test_non_integral_table_index_rejected_before_synthesis(tmp_path, capsys):
    cfg = table_index_config(tmp_path, [0.0, 1.0, 0.5])
    assert main(["certify", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: row 2: 0.5 is not a table index in 0..1\n"


def test_bad_table_index_past_the_first_chunk_named_by_its_row(tmp_path, capsys):
    # 601 draws are assembled in two chunks; the row is counted from the
    # start of the sample list, not from the start of its chunk
    indices = np.zeros(601)
    indices[600] = 0.5
    assert main(["certify", "--config", table_index_config(tmp_path, indices)]) == 1
    err = capsys.readouterr().err
    assert err == "error: row 600: 0.5 is not a table index in 0..1\n"


def test_analyze_skips_enumeration_on_certified_run(tmp_path, capsys, monkeypatch):
    # a feasible joint program already implies the necessary condition
    from invarcert import feasibility

    def no_enumeration(*args, **kwargs):
        raise AssertionError("minor enumeration ran on a certified program")

    monkeypatch.setattr(feasibility, "multisample_necessary", no_enumeration)
    cfg = write(tmp_path, feasible_config())
    assert main(["certify", "--config", cfg, "--analyze"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "certified"
    assert report["feasibility_analysis"] == {"passed": True, "first_failure": None}


def _certified_policy(tmp_path, capsys):
    cfg = write(tmp_path, feasible_config())
    assert main(["certify", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    return cfg, str(tmp_path / "run" / "report.json")


@pytest.mark.parametrize("count", ["0", "-3", "abc", "2.5"])
def test_bad_random_init_rejected_before_simulation(count, tmp_path, capsys, monkeypatch):
    from invarcert import closed_loop

    cfg, policy = _certified_policy(tmp_path, capsys)

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulation ran before the --init spec was rejected")

    monkeypatch.setattr(closed_loop, "simulate_closed_loop", no_simulation)
    argv = ["simulate", "--config", cfg, "--policy", policy, f"--init=random:{count}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --init 'random:{count}' needs a positive integer count "
        "(random:N, N >= 1)\n"
    )


def test_unknown_init_spec_rejected_before_simulation(tmp_path, capsys, monkeypatch):
    from invarcert import closed_loop

    cfg, policy = _certified_policy(tmp_path, capsys)

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulation ran before the --init spec was rejected")

    monkeypatch.setattr(closed_loop, "simulate_closed_loop", no_simulation)
    assert main(["simulate", "--config", cfg, "--policy", policy, "--init", "spiral"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown --init spec 'spiral' (use vertices or random:N)\n"


def test_simulate_outputs_reproducible(tmp_path, capsys):
    cfg, policy = _certified_policy(tmp_path, capsys)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        argv = ["simulate", "--config", cfg, "--policy", policy, "--init", "random:7"]
        assert main(argv + ["--seed", "2", "--horizon", "9", "--out", str(out)]) == 0
        capsys.readouterr()
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(runs[0]) == 8  # summary.json and 7 trajectory CSVs
    assert runs[0] == runs[1]


def test_rerun_into_an_out_directory_removes_stale_trajectories(tmp_path, capsys):
    # a second run with fewer starts leaves only its own trajectories next
    # to its summary; files that are not trajectories of this command stay
    cfg, policy = _certified_policy(tmp_path, capsys)
    out = tmp_path / "sim"
    argv = ["simulate", "--config", cfg, "--policy", policy, "--horizon", "5", "--out", str(out)]
    assert main(argv + ["--init", "random:4"]) == 0
    capsys.readouterr()
    kept = ["notes.txt", "trajectory_12.csv", "trajectory_0002.csv.bak", "trajectory_00003.csv"]
    for name in kept:
        (out / name).write_text("kept")
    assert main(argv + ["--init", "random:2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["trajectories"]) == 2
    expected = ["summary.json", "trajectory_0000.csv", "trajectory_0001.csv"] + kept
    assert sorted(p.name for p in out.iterdir()) == sorted(expected)


def test_reports_reproducible_across_processes(tmp_path):
    # each process draws its own hash seed unless PYTHONHASHSEED fixes it;
    # no report byte may depend on it
    import os
    import subprocess
    import sys

    import invarcert

    src = os.path.dirname(os.path.dirname(os.path.abspath(invarcert.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(hash_seed, *argv):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
        command = [sys.executable, "-W", "error", "-m", "invarcert.cli", *argv]
        return subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout

    cfg = write(tmp_path, feasible_config())
    reports = [run(seed, "certify", "--config", cfg, "--estimate", "100") for seed in (0, 1)]
    assert reports[0] == reports[1]
    policy = tmp_path / "report.json"
    policy.write_text(reports[0])
    grids = []
    for seed in (0, 1):
        out = tmp_path / f"grid{seed}"
        argv = ["--policy", str(policy), "--init", "random:7", "--seed", "2", "--horizon", "9"]
        run(seed, "simulate", "--config", cfg, *argv, "--out", str(out))
        grids.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(grids[0]) == 8  # summary.json and 7 trajectory CSVs
    assert grids[0] == grids[1]


def test_negative_sample_read_in_either_spelling(tmp_path, capsys):
    # '--sample -0.2,...' must not be taken for an option
    cfg, policy = _certified_policy(tmp_path, capsys)
    runs = []
    for name, spelling in (("a", ["--sample", "-0.2,0.5"]), ("b", ["--sample=-0.2,0.5"])):
        out = tmp_path / name
        argv = ["simulate", "--config", cfg, "--policy", policy, *spelling]
        assert main(argv + ["--init", "random:3", "--horizon", "4", "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(runs[0]["summary.json"])["delta"] == [-0.2, 0.5]
    assert len(runs[0]) == 4 and runs[0] == runs[1]


def test_infeasible_analysis_report_past_the_first_chunk(tmp_path, capsys):
    # 600 file-based samples of A(delta) = (1 + delta) I, B = 0: only
    # samples 530 and 560 have delta > 0, so both the joint program and
    # the per-sample enumeration first fail in the second assembly chunk
    rng = np.random.default_rng(3)
    samples = rng.uniform(-0.5, 0.0, size=(600, 1))
    samples[530], samples[560] = 0.01, 0.02
    np.savetxt(tmp_path / "samples.csv", samples, delimiter=",")
    payload = infeasible_config()
    payload["system"]["affine"]["A0"] = [[1.0, 0.0], [0.0, 1.0]]
    payload["system"]["affine"]["Ak"] = [[[1.0, 0.0], [0.0, 1.0]]]
    payload["scenarios"] = {"file": "samples.csv"}
    code = main(["certify", "--config", write(tmp_path, payload), "--analyze"])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["status"] == "infeasible"
    assert report["first_violation"] == {"sample": 530, "vertex": 0, "row": 4}
    assert report["feasibility_analysis"] == {
        "passed": False,
        "first_failure": {"vertex": 0, "sample": 530},
    }


def six_node_config(count, input_half=1.0):
    """The six-node network of ``instances.six_node_instance`` with S
    written out, the input box [-input_half, input_half]^2 and ``count``
    seed-4 draws on the weight box."""
    _, S, _, _ = six_node_instance(K=1)
    lo, hi = uncertainty_box(SIX_NODE_WEIGHTS)
    return {
        "schema": 1,
        "system": {
            "network": {
                "edges": [list(e) for e in SIX_NODE_EDGES],
                "floating": [0, 2, 4, 5],
                "inputs": [1, 3],
                "nominal_weights": SIX_NODE_WEIGHTS.tolist(),
            }
        },
        "state_set": {"facets": S.facets.tolist(), "vertices": S.vertices.tolist()},
        "input_set": {"box": {"lower": [-input_half] * 2, "upper": [input_half] * 2}},
        "scenarios": {
            "uniform": {"lower": lo.tolist(), "upper": hi.tolist()},
            "count": count,
            "seed": 4,
        },
        "beta": 1e-6,
    }


def test_stacked_scan_reports_the_reference_loop_bytes(tmp_path, capsys, monkeypatch):
    # witnesses and an infeasible analysis, through the stacked scan and
    # through the minor enumeration one row subset at a time
    feasible = write(tmp_path, six_node_config(60), "feasible.json")
    infeasible = write(tmp_path, six_node_config(120, input_half=0.05), "infeasible.json")
    argvs = [
        ["feasibility", "--config", feasible, "--sample", str(j), "--witnesses"]
        for j in (0, 17, 59)
    ]
    argvs.append(["certify", "--config", infeasible, "--analyze"])

    def outputs():
        return [(main(argv), capsys.readouterr()) for argv in argvs]

    stacked = outputs()
    monkeypatch.setattr(feasibility, "_scan", loop_scan)
    assert outputs() == stacked
    assert [code for code, _ in stacked] == [0, 0, 0, 2]
    assert all(json.loads(out.out)["feasibility_analysis"]["witnesses"] for _, out in stacked[:3])
    assert json.loads(stacked[3][1].out)["feasibility_analysis"]["passed"] is False


@pytest.mark.parametrize("estimate", ["0", "-5"])
def test_nonpositive_estimate_fails_before_synthesis(
    estimate, tmp_path, capsys, monkeypatch
):
    from invarcert import scenario

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran before the estimate size was rejected")

    monkeypatch.setattr(scenario, "solve_affine_policy", no_synthesis)
    cfg = write(tmp_path, feasible_config())
    assert main(["certify", "--config", cfg, f"--estimate={estimate}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --estimate M must be >= 1, got {estimate}\n"


def test_epsilon_table_fails_before_any_output(capsys):
    assert main(["epsilon", "--K", "0", "--beta", "0.1", "--table"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_unknown_option_key_named(tmp_path, capsys):
    payload = feasible_config()
    payload["options"] = {"estimate_seed": 3, "horizon": 50}
    cfg = write(tmp_path, payload)
    with pytest.raises(ConfigError, match="unknown key 'horizon' in options"):
        load_config(cfg)
    assert main(["certify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown key 'horizon' in options" in captured.err


# the certified policy of feasible_config: 4 vertices of S, m = 1, ell = 2
WRONG_SHAPES = {
    "three of four vertices": lambda a: a[:3],
    "five vertices": lambda a: np.concatenate([a, a[:1]]),
    "two inputs": lambda a: np.concatenate([a, a], axis=1),
}


@pytest.mark.parametrize(
    "case, shape",
    [
        ("three of four vertices", (3, 1, 2)),
        ("five vertices", (5, 1, 2)),
        ("two inputs", (4, 2, 2)),
    ],
)
def test_simulate_rejects_policy_of_the_wrong_shape(case, shape, tmp_path, capsys):
    cfg, report = _certified_policy(tmp_path, capsys)
    with open(report) as fh:
        policy = json.load(fh)["policy"]
    reshape = WRONG_SHAPES[case]
    gains = reshape(np.asarray(policy["gains"]))
    offsets = reshape(np.asarray(policy["offsets"]))
    assert gains.shape == shape
    payload = {"gains": gains.tolist(), "offsets": offsets.tolist()}
    bad = write(tmp_path, payload, "bad.json")
    argv = ["simulate", "--config", cfg, "--policy", bad, "--init", "random:3"]
    assert main(argv + ["--out", str(tmp_path / "sim")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: policy gains have shape {shape}, expected (4, 1, 2) "
        "(vertices of S, inputs, parameters)\n"
    )
    assert not list(tmp_path.glob("**/trajectory_*.csv"))


@pytest.mark.parametrize("index", ["25", "-1"])
def test_feasibility_sample_index_out_of_range(index, tmp_path, capsys, monkeypatch):
    from invarcert import feasibility

    def no_check(*args, **kwargs):
        raise AssertionError("a sample was checked before its index was rejected")

    monkeypatch.setattr(feasibility, "single_sample_iff", no_check)
    cfg = write(tmp_path, feasible_config(count=25))
    assert main(["feasibility", "--config", cfg, f"--sample={index}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --sample {index} is not a sample index in 0..24\n"


def test_beta_override_outside_unit_interval_fails_before_synthesis(
    tmp_path, capsys, monkeypatch
):
    from invarcert import scenario

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran before --beta was rejected")

    monkeypatch.setattr(scenario, "solve_affine_policy", no_synthesis)
    cfg = write(tmp_path, feasible_config())
    assert main(["certify", "--config", cfg, "--beta", "1.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: beta must lie in (0, 1), got 1.5\n"


def test_oversized_simulation_rejected_before_drawing_starts(
    tmp_path, capsys, monkeypatch
):
    # 10**12 starts could not even be drawn: the cap must come first
    from invarcert import closed_loop

    cfg, policy = _certified_policy(tmp_path, capsys)

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulation ran past the size cap")

    monkeypatch.setattr(closed_loop, "simulate_closed_loop", no_simulation)
    argv = ["simulate", "--config", cfg, "--policy", policy, "--init", "random:1000000000000"]
    assert main(argv + ["--horizon", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 1000000000000 starts over 9 steps in 2 dimensions are "
        f"20000000000000 states, more than the cap of {closed_loop.MAX_STATES}\n"
    )


@pytest.mark.parametrize("horizon", ["0", "-2"])
def test_short_horizon_rejected_before_drawing_starts(horizon, tmp_path, capsys, monkeypatch):
    cfg, policy = _certified_policy(tmp_path, capsys)
    default_rng = np.random.default_rng

    class NoStartDraw:
        """A generator whose Dirichlet draw of the starts must not run."""

        def __init__(self, *args):
            self.rng = default_rng(*args)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def dirichlet(self, *args, **kwargs):
            raise AssertionError("starts were drawn before the horizon was rejected")

    monkeypatch.setattr(np.random, "default_rng", NoStartDraw)
    argv = ["simulate", "--config", cfg, "--policy", policy, "--init", "random:3"]
    assert main(argv + [f"--horizon={horizon}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: horizon must be >= 1\n"


def _table_entry_without_b(payload):
    payload["system"] = {"table": {"pairs": [{"A": [[0.5]], "B": [[1.0]]}, {"A": [[0.8]]}]}}
    payload["state_set"] = payload["input_set"] = {"box": {"lower": [-1], "upper": [1]}}
    payload["scenarios"] = {"uniform": {"lower": [0], "upper": [1]}, "count": 3, "seed": 0}
    return payload


def _affine_not_an_object(payload):
    payload["system"] = {"affine": 3}
    return payload


def _uniform_not_an_object(payload):
    payload["scenarios"] = {"uniform": 5}
    return payload


@pytest.mark.parametrize(
    "edit, message",
    [
        (_table_entry_without_b, "missing key 'B' in system.table.pairs[1]"),
        (_affine_not_an_object, "system.affine must be an object"),
        (lambda payload: 3, "config must be an object"),
        (_uniform_not_an_object, "scenarios.uniform must be an object"),
    ],
)
def test_malformed_config_object_named(edit, message, tmp_path, capsys):
    cfg = write(tmp_path, edit(feasible_config()))
    assert main(["certify", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("payload", [3, {"policy": [1, 2]}])
def test_policy_file_not_an_object(payload, tmp_path, capsys):
    cfg = write(tmp_path, feasible_config())
    policy = write(tmp_path, payload, name="policy.json")
    assert main(["simulate", "--config", cfg, "--policy", policy]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: policy file must hold a JSON object\n"


def affine_config():
    """A 2-state affine plant with one parameter and explicit facets; certifies."""
    return {
        "schema": 1,
        "system": {
            "affine": {
                "A0": [[1.1, 0.1], [0.0, 0.5]],
                "B0": [[1.0], [0.0]],
                "Ak": [[[0.1, 0.0], [0.0, 0.1]]],
                "Bk": [[[0.0], [0.1]]],
            }
        },
        "state_set": {
            "facets": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
            "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
        },
        "input_set": {"box": {"lower": [-1], "upper": [1]}},
        "scenarios": {"uniform": {"lower": [-1], "upper": [1]}, "count": 5, "seed": 0},
        "beta": 1e-3,
    }


def _edit(path, value):
    """An edit of ``affine_config`` that sets the entry at ``path`` to ``value``."""

    def edit(payload):
        *parents, last = path
        for key in parents:
            payload = payload[key]
        payload[last] = value

    return edit


def _rename(path, old, new):
    """An edit of ``affine_config`` that renames the key ``old`` at ``path``."""

    def edit(payload):
        for key in path:
            payload = payload[key]
        payload[new] = payload.pop(old)

    return edit


def _network_edges(edges):
    """An edit that turns the config into ``feasible_config`` with ``edges``."""

    def edit(payload):
        payload.update(feasible_config())
        payload["system"]["network"]["edges"] = edges

    return edit


BAD_VALUES = {
    "table-pairs-not-a-list": (
        lambda p: p.update(system={"table": {"pairs": 3}}),
        "system.table.pairs must be a list",
    ),
    "network-node-not-an-integer": (
        _network_edges([[0, 1], [1, 2.5]]),
        "system.network.edges must hold node numbers",
    ),
    "network-edge-not-a-pair": (
        _network_edges([[0, 1, 2], [1, 2, 0]]),
        "system.network.edges must hold [i, j] pairs",
    ),
    "scenario-file-not-a-path": (
        _edit(["scenarios"], {"file": 3}),
        "scenarios.file must be a path",
    ),
    "beta-a-list": (_edit(["beta"], [1]), "beta must be a number in (0, 1), got [1]"),
    "count-a-list": (
        _edit(["scenarios", "count"], [3]),
        "scenarios.count must be an integer >= 1, got [3]",
    ),
    "uniform-lower-nan": (
        _edit(["scenarios", "uniform", "lower"], [float("nan")]),
        "scenarios.uniform.lower must be finite",
    ),
    "affine-A0-nan": (
        _edit(["system", "affine", "A0", 0, 1], float("nan")),
        "system.affine.A0 must be finite",
    ),
    "affine-Bk-string": (
        _edit(["system", "affine", "Bk", 0], "B"),
        "system.affine.Bk[0] must be an array of numbers",
    ),
    "affine-Bk-flat": (
        _edit(["system", "affine", "Bk", 0], [[0.0, 0.1]]),
        "Bk[0] has shape (1, 2), expected (2, 1) as B0",
    ),
    "facets-nan": (
        _edit(["state_set", "facets", 2, 0], float("nan")),
        "state_set.facets must be finite",
    ),
    "box-lower-infinite": (
        _edit(["input_set", "box", "lower"], [float("-inf")]),
        "input_set.box.lower must be finite",
    ),
    "count-not-an-integer": (
        _edit(["scenarios", "count"], 2.7),
        "scenarios.count must be an integer >= 1, got 2.7",
    ),
    "box-lower-a-matrix": (
        _edit(["input_set", "box", "lower"], [[-1]]),
        "input_set.box.lower must be a 1-d array of numbers",
    ),
    "state-set-tol": (
        _edit(["state_set", "tol"], 1e-6),
        "unknown key 'tol' in state_set (known: facets, vertices)",
    ),
    "estimate-seed-negative": (
        _edit(["options"], {"estimate_seed": -1}),
        "options.estimate_seed must be an integer >= 0, got -1",
    ),
    # every key is checked: a misspelt or foreign key is refused
    "beta-misspelt": (
        _rename([], "beta", "Beta"),
        "unknown key 'Beta' in config (known: schema, system, state_set, input_set, "
        "scenarios, beta, options)",
    ),
    "affine-Bk-misspelt": (
        _rename(["system", "affine"], "Bk", "BK"),
        "unknown key 'BK' in system.affine (known: A0, B0, Ak, Bk)",
    ),
    "network-extra-key": (
        lambda p: p.update(feasible_config()) or p["system"]["network"].update(weights=[1]),
        "unknown key 'weights' in system.network (known: edges, floating, inputs, "
        "nominal_weights)",
    ),
    "table-extra-key": (
        _edit(["system"], {"table": {"pairs": [{"A": [[0.5]], "B": [[1.0]]}], "index": 0}}),
        "unknown key 'index' in system.table (known: pairs)",
    ),
    "table-pair-extra-key": (
        _edit(["system"], {"table": {"pairs": [{"A": [[0.5]], "B": [[1.0]], "C": 0}]}}),
        "unknown key 'C' in system.table.pairs[0] (known: A, B)",
    ),
    "schema-2": (_edit(["schema"], 2), "schema must be 1, got 2"),
    "schema-string": (_edit(["schema"], "x"), "schema must be 1, got 'x'"),
    "schema-true": (_edit(["schema"], True), "schema must be 1, got True"),
    "scenarios-extra-key": (
        _edit(["scenarios", "K"], 5),
        "unknown key 'K' in scenarios (known: uniform, count, seed)",
    ),
    "uniform-extra-key": (
        _edit(["scenarios", "uniform", "shape"], "normal"),
        "unknown key 'shape' in scenarios.uniform (known: lower, upper)",
    ),
    "scenario-file-with-count": (
        _edit(["scenarios"], {"file": "w.csv", "count": 3}),
        "unknown key 'count' in scenarios (known: file)",
    ),
    "box-extra-key": (
        _edit(["input_set", "box", "center"], [0.0]),
        "unknown key 'center' in input_set.box (known: lower, upper)",
    ),
    # sections that are not objects, two system kinds, no scenario source
    "scenarios-not-an-object": (_edit(["scenarios"], [1]), "scenarios must be an object"),
    "state-set-not-an-object": (_edit(["state_set"], 3), "state_set must be an object"),
    "options-not-an-object": (_edit(["options"], [0]), "options must be an object"),
    "table-pair-not-an-object": (
        _edit(["system"], {"table": {"pairs": [[[0.5]]]}}),
        "system.table.pairs[0] must be an object",
    ),
    "two-system-kinds": (
        lambda p: p["system"].update(table={"pairs": []}),
        "'system' must hold exactly one of network/affine/table",
    ),
    "scenarios-without-a-source": (
        _edit(["scenarios"], {"count": 3, "seed": 0}),
        "'scenarios' needs either 'file' or 'uniform'",
    ),
    # dimensions that do not match the family, ragged arrays
    "state-set-dimension": (
        _edit(["state_set"], {"box": {"lower": [-1, -1, -1], "upper": [1, 1, 1]}}),
        "state_set dimension 3 != family state dimension 2",
    ),
    "input-set-dimension": (
        _edit(["input_set", "box"], {"lower": [-1, -1], "upper": [1, 1]}),
        "input_set dimension 2 != family input dimension 1",
    ),
    "scenario-dimension": (
        _edit(["scenarios", "uniform"], {"lower": [-1, -1], "upper": [1, 1]}),
        "scenario dimension 2 != family parameter dimension 1",
    ),
    "affine-A0-ragged": (
        _edit(["system", "affine", "A0"], [[1.1, 0.1], [0.0]]),
        "system.affine.A0 must be an array of numbers",
    ),
    "facets-ragged": (
        _edit(["state_set", "facets"], [[1.0, 0.0], [0.0]]),
        "state_set.facets must be a 2-d array of numbers",
    ),
}


def test_affine_config_certifies(tmp_path, capsys):
    assert main(["certify", "--config", write(tmp_path, affine_config())]) == 0


def test_schema_may_be_left_out(tmp_path):
    payload = affine_config()
    del payload["schema"]
    assert load_config(write(tmp_path, payload)).scenarios.K == 5


@pytest.mark.parametrize("case", list(BAD_VALUES))
def test_bad_config_value_named_at_load(case, tmp_path, capsys, monkeypatch):
    # each value fails with one error line naming its key, before synthesis
    from invarcert import scenario

    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran")

    monkeypatch.setattr(scenario, "solve_affine_policy", no_synthesis)
    edit, message = BAD_VALUES[case]
    payload = affine_config()
    edit(payload)
    assert main(["certify", "--config", write(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_non_finite_plant_fails_simulate_before_any_step(tmp_path, capsys, monkeypatch):
    from invarcert import closed_loop

    clean = write(tmp_path, affine_config(), name="clean.json")
    out = tmp_path / "run"
    assert main(["certify", "--config", clean, "--out", str(out)]) == 0
    capsys.readouterr()

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulation ran")

    monkeypatch.setattr(closed_loop, "simulate_closed_loop", no_simulation)
    payload = affine_config()
    payload["system"]["affine"]["A0"][0][1] = float("nan")
    cfg = write(tmp_path, payload)
    argv = ["simulate", "--config", cfg, "--policy", str(out / "report.json")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: system.affine.A0 must be finite\n"


def _simulation_must_not_start(monkeypatch):
    from invarcert import cli, closed_loop

    def no_work(*args, **kwargs):
        raise AssertionError("the simulation started")

    monkeypatch.setattr(cli, "_initial_states", no_work)
    monkeypatch.setattr(closed_loop, "simulate_closed_loop", no_work)


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--sample=", "--sample '' is not a comma-separated list of numbers"),
        ("--sample=1,,2", "--sample '1,,2' is not a comma-separated list of numbers"),
        ("--sample=nan", "--sample values must be finite, got [nan]"),
        ("--sample=1e309", "--sample values must be finite, got [inf]"),
        ("--sample=1e308", "--sample [1e+308] gives a non-finite plant"),
        ("--sample=0.5,0.5", "--sample has 2 values, expected 1"),
        ("--seed=-1", "--seed must be >= 0, got -1"),
    ],
)
def test_bad_simulate_argument_refused_before_any_work(
    flag, message, tmp_path, capsys, monkeypatch
):
    # A(delta) = A0 + delta * 2 I overflows at delta = 1e308
    payload = affine_config()
    payload["system"]["affine"]["Ak"] = [[[2.0, 0.0], [0.0, 2.0]]]
    cfg = write(tmp_path, payload)
    zero = {"gains": np.zeros((4, 1, 1)).tolist(), "offsets": np.zeros((4, 1)).tolist()}
    policy = write(tmp_path, zero, "policy.json")
    _simulation_must_not_start(monkeypatch)
    argv = ["simulate", "--config", cfg, "--policy", policy, "--init", "random:3", flag]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_sample_that_overflows_the_run_refused(tmp_path, capsys):
    # A(delta) = A0 + delta * 2 I is finite at delta = 1e150, but the
    # states pass 1e308 by step 3: one error line, no summary with NaN
    payload = affine_config()
    payload["system"]["affine"]["Ak"] = [[[2.0, 0.0], [0.0, 2.0]]]
    cfg = write(tmp_path, payload)
    zero = {"gains": np.zeros((4, 1, 1)).tolist(), "offsets": np.zeros((4, 1)).tolist()}
    policy = write(tmp_path, zero, "policy.json")
    argv = ["simulate", "--config", cfg, "--policy", policy, "--sample=1e150"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --sample [1e+150] overflows the run: "
        "the state of start 0 at step 3 is not finite\n"
    )
    assert not (tmp_path / "run").exists()


def test_nominal_run_that_overflows_refused(tmp_path, capsys):
    # without --sample the overflow is the simulation's own error: A0 = 1e200 I
    # takes the vertex starts past 1e308 at step 2
    payload = affine_config()
    payload["system"]["affine"]["A0"] = [[1e200, 0.0], [0.0, 1e200]]
    cfg = write(tmp_path, payload)
    zero = {"gains": np.zeros((4, 1, 1)).tolist(), "offsets": np.zeros((4, 1)).tolist()}
    policy = write(tmp_path, zero, "policy.json")
    assert main(["simulate", "--config", cfg, "--policy", policy, "--nominal"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the state of start 0 at step 2 is not finite\n"


def overflow_config():
    """B(delta) = I + delta 1e300 I overflows on nearly every draw of [-1e10, 1e10]."""
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return {
        "system": {
            "affine": {
                "A0": [[0.5, 0.0], [0.0, 0.5]],
                "B0": eye,
                "Ak": [[[0.0, 0.0], [0.0, 0.0]]],
                "Bk": [[[1e300, 0.0], [0.0, 1e300]]],
            }
        },
        "state_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
        "input_set": {"box": {"lower": [-1, -1], "upper": [1, 1]}},
        "scenarios": {"uniform": {"lower": [-1e10], "upper": [1e10]}, "count": 20, "seed": 0},
        "beta": 1e-3,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--estimate", "50"],
        ["feasibility"],
        ["feasibility", "--sample", "0"],
    ],
)
def test_overflowing_draw_refused_by_every_command(argv, tmp_path):
    # run as a script, where warnings are not errors: each command refuses
    # sample 0 by name, with one error line and no RuntimeWarning, where
    # certify used to certify the policy (v_hat 1.0) and feasibility to
    # report sample 0 infeasible
    import os
    import subprocess
    import sys

    import invarcert

    src = os.path.dirname(os.path.dirname(os.path.abspath(invarcert.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    cfg = write(tmp_path, overflow_config())
    command = [sys.executable, "-m", "invarcert.cli", argv[0], "--config", cfg, *argv[1:]]
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr == "error: row 0: parameter [2739233746.4290867] gives a non-finite plant\n"


def test_table_sample_that_is_not_an_index_refused(tmp_path, capsys, monkeypatch):
    cfg = table_index_config(tmp_path, [0, 1])
    zero = {"gains": np.zeros((2, 1, 1)).tolist(), "offsets": np.zeros((2, 1)).tolist()}
    policy = write(tmp_path, zero, "policy.json")
    _simulation_must_not_start(monkeypatch)
    assert main(["simulate", "--config", cfg, "--policy", policy, "--sample=0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --sample 0.5 is not a table index in 0..1\n"


@pytest.mark.parametrize("key", ["gains", "offsets"])
def test_policy_file_without_gains_or_offsets(key, tmp_path, capsys, monkeypatch):
    cfg, report = _certified_policy(tmp_path, capsys)
    with open(report) as fh:
        policy = json.load(fh)["policy"]
    del policy[key]
    bad = write(tmp_path, policy, "bad.json")
    _simulation_must_not_start(monkeypatch)
    assert main(["simulate", "--config", cfg, "--policy", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: policy file needs 'gains' and 'offsets'\n"


def test_non_finite_policy_file_fails_at_load(tmp_path, capsys, monkeypatch):
    cfg, report = _certified_policy(tmp_path, capsys)
    with open(report) as fh:
        policy = json.load(fh)["policy"]
    policy["gains"][2][0][1] = float("nan")
    bad = write(tmp_path, policy, "bad.json")
    _simulation_must_not_start(monkeypatch)
    assert main(["simulate", "--config", cfg, "--policy", bad]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: policy gains and offsets of vertex 2 must be finite\n"


@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
@pytest.mark.parametrize("command", ["certify", "simulate", "feasibility"])
def test_out_that_cannot_be_a_directory_refused_first(
    command, below, tmp_path, capsys, monkeypatch
):
    from invarcert import cli, scenario

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was refused")

    monkeypatch.setattr(cli, "load_config", no_work)
    monkeypatch.setattr(scenario, "solve_affine_policy", no_work)
    cfg = write(tmp_path, feasible_config())
    (tmp_path / "notadir").write_text("")
    out = tmp_path / "notadir" / "run" if below else tmp_path / "notadir"
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "simulate":
        argv += ["--policy", cfg]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --out {out}: {tmp_path / 'notadir'} exists and is not a directory\n"
    )


@pytest.mark.parametrize("text", ["", "w1,w2\n"], ids=["empty", "header-only"])
@pytest.mark.parametrize("command", ["certify", "feasibility"])
def test_scenario_file_without_rows_named_at_load(command, text, tmp_path, capsys):
    (tmp_path / "w.csv").write_text(text)
    payload = feasible_config()
    payload["scenarios"] = {"file": "w.csv"}
    assert main([command, "--config", write(tmp_path, payload)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {tmp_path / 'w.csv'}: no sample rows (the file is empty or only a header)\n"
    )


def test_witnesses_without_sample_refused_before_enumeration(tmp_path, capsys, monkeypatch):
    from invarcert import feasibility

    def no_enumeration(*args, **kwargs):
        raise AssertionError("the samples were enumerated before --witnesses was refused")

    monkeypatch.setattr(feasibility, "multisample_necessary", no_enumeration)
    cfg = write(tmp_path, feasible_config(count=5))
    assert main(["feasibility", "--config", cfg, "--witnesses", "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --witnesses needs --sample j: witnesses are per sample\n"
    assert not (tmp_path / "o").exists()


def test_missing_policy_file_is_an_argument_error(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path, feasible_config())
    _simulation_must_not_start(monkeypatch)
    missing = tmp_path / "none.json"
    assert main(["simulate", "--config", cfg, "--policy", str(missing)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read policy file: [Errno 2]")
    assert str(missing) in captured.err and captured.err.count("\n") == 1
