"""Batch front-end: certify / simulate / epsilon / feasibility.

Exit codes: 0 success (certified, or analysis passed), 2 infeasible /
failed analysis, 1 configuration or runtime error.  Reports are JSON with
sorted keys and no timestamps, so identical configs and seeds reproduce
byte-identical output.
"""

import argparse
import json
import os
import re
import sys

import numpy as np

from . import closed_loop, feasibility, geometry, scenario
from .certificate import build_certificate, epsilon_even_split, epsilon_table
from .config import ConfigError, ProblemConfig, load_config
from .errors import InvalidArguments, InvarcertError
from .system_family import UnknownSample, spectral_radius_estimate

SCHEMA_VERSION = 1


def _dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_report(payload: dict, out_dir, name: str) -> None:
    text = _dump(payload)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _system_summary(config: ProblemConfig) -> dict:
    family = config.family
    A, _ = family.instantiate(family.nominal_delta)
    return {
        "kind": type(family).__name__,
        "n": family.n,
        "m": family.m,
        "ell": family.ell,
        "nominal_spectral_radius": spectral_radius_estimate(A),
    }


def _policy_payload(policy: scenario.AffinePolicy) -> dict:
    return {
        "gains": policy.gains.tolist(),
        "offsets": policy.offsets.tolist(),
        "fingerprint": policy.fingerprint,
        "scenario_fingerprint": policy.scenario_fingerprint,
    }


def _multisample_payload(result: feasibility.MultisampleResult) -> dict:
    failure = result.first_failure
    return {
        "passed": result.passed,
        "first_failure": (
            None if failure is None else {"vertex": failure[0], "sample": failure[1]}
        ),
    }


def _witness_payload(w: feasibility.MinorWitness) -> dict:
    return {
        "vertex": w.vertex,
        "sample": w.sample,
        "input_rows": list(w.input_rows),
        "image_rows": list(w.image_rows),
        "point": w.point.tolist(),
    }


def run_certify(
    config: ProblemConfig,
    *,
    analyze: bool = False,
    estimate: int | None = None,
    beta: float | None = None,
) -> tuple[int, dict]:
    """certify pipeline: policy -> support subsample -> certificate.

    Returns (exit_code, report).
    """
    beta = config.beta if beta is None else beta
    family, S, U = config.family, config.state_set, config.input_set
    scen = config.scenarios
    if estimate is not None and not hasattr(scen.distribution, "draw"):
        raise InvalidArguments(
            "--estimate needs a sampling distribution; file-based scenarios have none"
        )
    if estimate is not None and estimate < 1:
        raise InvalidArguments(f"--estimate M must be >= 1, got {estimate}")
    if not 0.0 < beta < 1.0:
        raise InvalidArguments(f"beta must lie in (0, 1), got {beta}")
    report = {
        "schema": SCHEMA_VERSION,
        "command": "certify",
        "beta": beta,
        "system": _system_summary(config),
        "scenarios": {
            "K": scen.K,
            "ell": scen.ell,
            "seed": scen.seed,
            "fingerprint": scen.fingerprint,
        },
    }

    try:
        policy = scenario.solve_affine_policy(family, S, U, scen)
    except scenario.Infeasible as exc:
        report["status"] = "infeasible"
        report["first_violation"] = {
            "sample": exc.sample,
            "vertex": exc.vertex,
            "row": exc.row,
        }
        if analyze:
            check = feasibility.multisample_necessary(family, S, U, scen)
            report["feasibility_analysis"] = _multisample_payload(check)
        return 2, report

    support = scenario.greedy_support_subsample(policy)
    cert = build_certificate(len(support), beta, policy, scen)
    report["status"] = "certified"
    report["policy"] = _policy_payload(policy)
    report["support"] = {"indices": support, "s_K": len(support)}
    report["certificate"] = cert.to_dict()

    if estimate is not None:
        est = closed_loop.estimate_violation(
            family,
            S,
            U,
            policy,
            scen.distribution,
            M=estimate,
            seed=config.options.get("estimate_seed", 0),
        )
        report["violation_estimate"] = {
            "M": est.sample_count,
            "seed": est.seed,
            "v_hat": est.v_hat,
            "std_error": est.std_error,
            "failure_count": len(est.failures),
        }
    if analyze:
        # a feasible joint program makes every single-sample block feasible,
        # so the minor enumeration could only pass
        report["feasibility_analysis"] = _multisample_payload(feasibility.MultisampleResult())
    return 0, report


def _load_policy(path) -> scenario.AffinePolicy:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidArguments(f"cannot read policy file: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InvalidArguments(f"policy file {path} is not UTF-8 JSON: {exc}") from None
    if isinstance(payload, dict) and "policy" in payload:
        payload = payload["policy"]
    if not isinstance(payload, dict):
        raise InvalidArguments("policy file must hold a JSON object")
    if "gains" not in payload or "offsets" not in payload:
        raise InvalidArguments("policy file needs 'gains' and 'offsets'")
    return scenario.AffinePolicy(
        gains=np.asarray(payload["gains"], dtype=float),
        offsets=np.asarray(payload["offsets"], dtype=float),
        scenario_fingerprint=payload.get("scenario_fingerprint"),
    )


def _initial_states(
    spec: str, S: geometry.Polytope, seed: int, horizon: int
) -> np.ndarray:
    if spec == "vertices":
        return np.array(S.vertices, dtype=float)
    if spec.startswith("random:"):
        text = spec.split(":", 1)[1]
        if not text.isdecimal() or int(text) < 1:
            raise ConfigError(
                f"--init '{spec}' needs a positive integer count (random:N, N >= 1)"
            )
        count = int(text)
        closed_loop.check_size(count, horizon, S.dim)  # before drawing them
        rng = np.random.default_rng(seed)
        # random interior points as convex recombinations of the vertices
        weights = rng.dirichlet(np.ones(S.vertex_count), size=count)
        shrink = rng.uniform(0.0, 1.0, size=(count, 1))
        return (weights @ S.vertices) * shrink
    raise ConfigError(f"unknown --init spec '{spec}' (use vertices or random:N)")


def _sample_parameter(family, sample):
    """``sample`` as the parameter of a simulation: ``ell`` finite numbers
    whose plant ``A(delta), B(delta)`` the family builds.  A draw the
    family refuses is refused here in the words of ``--sample``, before any
    start is drawn or any step runs; the simulation builds the plant
    again."""
    delta = np.asarray(sample, dtype=float)
    if delta.shape != (family.ell,):
        raise InvalidArguments(f"--sample has {delta.size} values, expected {family.ell}")
    if not np.isfinite(delta).all():
        raise InvalidArguments(f"--sample values must be finite, got {delta.tolist()}")
    try:
        family.instantiate(delta)
    except UnknownSample as exc:
        raise InvalidArguments(
            f"--sample {exc.value!r} is not a table index in 0..{exc.count - 1}"
        ) from None
    except InvalidArguments:
        raise InvalidArguments(f"--sample {delta.tolist()} gives a non-finite plant") from None
    return delta


def _trajectory_name(idx: int) -> str:
    return f"trajectory_{idx:04d}.csv"


def _remove_stale_trajectories(out_dir, count: int) -> None:
    """Delete the trajectory files an earlier run left in ``out_dir`` beyond
    the first ``count``: only names this command writes, from index
    ``count`` on."""
    for name in os.listdir(out_dir):
        index = re.fullmatch(r"trajectory_(\d+)\.csv", name)
        if index and int(index[1]) >= count and name == _trajectory_name(int(index[1])):
            os.remove(os.path.join(out_dir, name))


def run_simulate(
    config: ProblemConfig,
    policy: scenario.AffinePolicy,
    *,
    sample=None,
    init: str = "vertices",
    horizon: int = closed_loop.DEFAULT_HORIZON,
    seed: int = 0,
    out_dir=None,
) -> tuple[int, dict]:
    """simulate pipeline: trajectories + gauge summary for one parameter."""
    family, S = config.family, config.state_set
    if seed < 0:
        raise InvalidArguments(f"--seed must be >= 0, got {seed}")
    delta = family.nominal_delta if sample is None else _sample_parameter(family, sample)
    starts = _initial_states(init, S, seed, horizon)
    try:
        trajectories = closed_loop.simulate_closed_loop(
            family, delta, S, policy, starts, T=horizon
        )
    except closed_loop.TrajectoryOverflow as exc:
        if sample is None:
            raise
        raise InvalidArguments(f"--sample {delta.tolist()} overflows the run: {exc}") from None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _remove_stale_trajectories(out_dir, len(trajectories))
    summary = []
    for idx, traj in enumerate(trajectories):
        if out_dir:
            closed_loop.write_trajectory_csv(os.path.join(out_dir, _trajectory_name(idx)), traj)
        summary.append(
            {
                "trajectory": idx,
                "max_gauge": traj.max_gauge,
                "first_exit": traj.first_exit,
            }
        )
    report = {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "delta": [float(v) for v in delta],
        "horizon": horizon,
        "init": init,
        "seed": seed,
        "trajectories": summary,
        "max_gauge_overall": max(row["max_gauge"] for row in summary),
    }
    return 0, report


def run_feasibility(
    config: ProblemConfig, *, sample: int | None = None, witnesses: bool = False
) -> tuple[int, dict]:
    family, S, U = config.family, config.state_set, config.input_set
    report = {"schema": SCHEMA_VERSION, "command": "feasibility"}
    K = config.scenarios.K
    if sample is not None and not 0 <= sample < K:
        raise InvalidArguments(f"--sample {sample} is not a sample index in 0..{K - 1}")
    if sample is None and witnesses:
        raise InvalidArguments("--witnesses needs --sample j: witnesses are per sample")
    if sample is not None:
        result = feasibility.single_sample_iff(
            family, S, U, config.scenarios.samples[sample], sample_index=sample
        )
        report["sample"] = sample
        report["feasible"] = result.feasible
        report["failed_vertex"] = result.failed_vertex
        if witnesses and result.feasible:
            report["feasibility_analysis"] = {
                "witnesses": [_witness_payload(w) for w in result.witnesses]
            }
        return (0 if result.feasible else 2), report
    result = feasibility.multisample_necessary(family, S, U, config.scenarios)
    report.update(_multisample_payload(result))
    return (0 if result.passed else 2), report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invarcert",
        description=(
            "Probabilistic controlled-invariance certification for sampled "
            "uncertain linear systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="synthesize a policy and certify it")
    cert.add_argument("--config", required=True, help="problem config (JSON)")
    cert.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "add the feasibility analysis to the report; the minor enumeration "
            "runs only when the program is infeasible"
        ),
    )
    cert.add_argument(
        "--estimate",
        type=int,
        metavar="M",
        help="Monte Carlo violation estimate with M fresh samples",
    )
    cert.add_argument("--beta", type=float, help="override the config confidence level")
    cert.add_argument("--out", help="directory for report.json")

    sim = sub.add_parser("simulate", help="closed-loop vertex-law simulation")
    sim.add_argument("--config", required=True)
    sim.add_argument("--policy", required=True, help="policy JSON (or certify report)")
    group = sim.add_mutually_exclusive_group()
    group.add_argument("--sample", help="comma-separated parameter vector")
    group.add_argument(
        "--nominal", action="store_true", help="simulate at the nominal parameter"
    )
    sim.add_argument(
        "--init",
        default="vertices",
        help="initial states: 'vertices' or 'random:N' (default vertices)",
    )
    sim.add_argument("--horizon", type=int, default=closed_loop.DEFAULT_HORIZON)
    sim.add_argument("--seed", type=int, default=0, help="seed for random:N inits")
    sim.add_argument("--out", help="directory for trajectory CSVs + summary")

    eps = sub.add_parser("epsilon", help="evaluate the violation-level function")
    eps.add_argument("--K", type=int, required=True)
    eps.add_argument("--beta", type=float, required=True)
    group = eps.add_mutually_exclusive_group(required=True)
    group.add_argument("--h", type=int, help="support subsample size")
    group.add_argument(
        "--table", action="store_true", help="dump the whole h -> epsilon curve as CSV"
    )

    feas = sub.add_parser("feasibility", help="minor-enumeration feasibility check")
    feas.add_argument("--config", required=True)
    feas.add_argument("--sample", type=int, help="check a single sample index")
    feas.add_argument(
        "--witnesses", action="store_true", help="include minor witnesses (needs --sample)"
    )
    feas.add_argument("--out", help="directory for report.json")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse would read a --sample value with a leading '-' as an option
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--sample":
            argv[i : i + 2] = [f"--sample={argv[i + 1]}"]
    args = parser.parse_args(argv)
    try:
        if args.command == "epsilon":
            if args.table:
                table = epsilon_table(args.K, args.beta)  # fails before any output
                sys.stdout.write("h,epsilon\n")
                for h, eps in enumerate(table):
                    sys.stdout.write(f"{h},{eps!r}\n")
            else:
                eps = epsilon_even_split(args.h, args.K, args.beta)
                sys.stdout.write(
                    _dump(
                        {
                            "K": args.K,
                            "beta": args.beta,
                            "h": args.h,
                            "epsilon": eps,
                            "invariance_probability": 1.0 - eps,
                        }
                    )
                )
            return 0
        if args.command == "simulate" and args.sample is not None:
            try:
                args.sample = [float(tok) for tok in args.sample.split(",")]
            except ValueError:
                raise InvalidArguments(
                    f"--sample '{args.sample}' is not a comma-separated list of numbers"
                ) from None
        if args.out:  # one that cannot become a directory is refused before any work
            path = os.path.abspath(args.out)
            while not os.path.exists(path):
                path = os.path.dirname(path)
            if not os.path.isdir(path):
                raise InvalidArguments(f"--out {args.out}: {path} exists and is not a directory")
        config = load_config(args.config)
        if args.command == "certify":
            code, report = run_certify(
                config,
                analyze=args.analyze,
                estimate=args.estimate,
                beta=args.beta,
            )
        elif args.command == "simulate":
            code, report = run_simulate(
                config,
                _load_policy(args.policy),
                sample=args.sample,
                init=args.init,
                horizon=args.horizon,
                seed=args.seed,
                out_dir=args.out,
            )
        else:
            code, report = run_feasibility(
                config, sample=args.sample, witnesses=args.witnesses
            )
        name = "summary.json" if args.command == "simulate" else "report.json"
        _write_report(report, args.out, name)
        return code
    except (InvarcertError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
