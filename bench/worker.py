"""One workload pass in a fresh process: what ``invarcert certify`` and
``simulate`` do, through the CLI's public functions, with every output
checked.

    python3 bench/worker.py --spec SPEC.json [--setup-only] [--calibrate]
                            [--trace-out PATH]

A pass imports invarcert and loads the config (``setup_s``), certifies
(``cli.run_certify`` with the workload's ``analyze`` flag) and certifies
again without the analysis, which must give a bit-identical policy and
support.  It then alternates, ``chunks`` times, a Monte Carlo estimate at
the workload's M (all identical) with a slice of the simulation grid (one
``random:N`` simulate call per training sample j in ``sim_samples``), so
that both throughputs average over the same stretch of the pass.  The
second certify call is a
``certify_s`` sample too when the workload does not analyze (the two
calls are then the same).  Every output is checked.  The pass prints one
JSON object with the timings, the operations attempted and failed, and
the deterministic work counts.

With ``--calibrate`` a fixed numpy kernel (:func:`calibration_kernel`) is
timed after the set-up and after every timed operation, so that each
timing has the kernel's time just before and just after it; ``run.py``
uses them to take the host's speed out of the timings.  The traced run
does not calibrate, so its pass times stay comparable.

With ``--trace-out`` the tracer's wrappers are installed before the config
is loaded, the per-layer metrics are added to the output and the span log
is written to the given path.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext

MAX_PROBLEMS = 20  # problem messages kept per pass
CALIBRATION_ROUNDS = 2_000
# Seconds the calibration kernel takes at the reference speed (about its
# median on a 2-vCPU Xeon); timings are reported at this speed.
REF_NOMINAL_S = 0.04


def calibration_kernel(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds a fixed numpy kernel takes: 6x6 solves and products, the
    small dense calls the program spends its time in.

    It does not use invarcert, so a change to the program cannot move it;
    on a shared host it slows down and speeds up with the program.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    A = np.eye(6) + 0.1 * rng.normal(size=(6, 6))
    M = rng.normal(size=(6, 6))
    x = rng.normal(size=6)
    t = time.perf_counter()
    for _ in range(rounds):
        x = np.linalg.solve(A, x) + 0.01 * (M @ x)
        x = x / np.abs(x).max()
    return time.perf_counter() - t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    with open(args.spec) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    from invarcert import config as config_module

    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    phase = tracer.span if tracer else (lambda name: nullcontext())
    with phase("setup"):
        cfg = config_module.load_config(spec["config"])
    setup_s = time.perf_counter() - t0
    kernel_s = None
    if args.calibrate:
        calibration_kernel(rounds=100)  # numpy's lazy set-up, untimed
        kernel_s = calibration_kernel()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_kernel_s": kernel_s}))
        return 0

    result = Pass(spec, cfg, phase, kernel_s).run()
    result["setup_s"] = setup_s
    result["setup_kernel_s"] = kernel_s
    if tracer:
        result["layers"], result["certify_split"] = tracing.layer_metrics(
            tracer, result["work"]
        )
        tracer.save(args.trace_out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Pass:
    """The operations of one pass, their timings and their checks."""

    def __init__(self, spec: dict, cfg, phase, kernel_s: float | None):
        with open(spec["config"]) as fh:
            self.raw = json.load(fh)  # what the independent checks read
        self.spec, self.cfg, self.phase = spec, cfg, phase
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.problems: list[str] = []
        self.timings = {"certify_s": [], "mc_s": [], "sim_s": []}
        # with calibration: every kernel time of the pass, and for each timing
        # the mean of the kernel times just before and just after it
        self.kernel_s = [kernel_s] if kernel_s is not None else None
        self.kernel_next_to = {key: [] for key in self.timings}
        self.work = {
            "K": int(cfg.scenarios.K),
            "certify_calls": 2,
            "M": spec["mc_draws"],
            "mc_calls": spec["chunks"],
            "steps": len(spec["sim_samples"]) * spec["sim_starts"] * spec["horizon"],
        }

    def record(self, kind: str, problems) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if problems:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            for p in problems:
                if len(self.problems) < MAX_PROBLEMS:
                    self.problems.append(f"{kind}: {p}")

    def timed(self, key: str | None, fn):
        t = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an operation that raised is a failed one
            out = _error(exc)
        elapsed = time.perf_counter() - t
        if key is not None:
            self.timings[key].append(elapsed)
        if self.kernel_s is not None:
            self.kernel_s.append(calibration_kernel())
            if key is not None:
                self.kernel_next_to[key].append(0.5 * (self.kernel_s[-2] + self.kernel_s[-1]))
        return out

    def run(self) -> dict:
        policy = self.certify()
        chunks, grid = self.spec["chunks"], self.spec["sim_samples"]
        J = len(grid)
        edges = [round(c * J / chunks) for c in range(chunks + 1)]
        estimates, summaries = [], []
        for c in range(chunks if policy is not None else 0):
            with self.phase("mc"):
                estimates.append(self.timed("mc_s", lambda: self.estimate(policy)))
            with self.phase("sim"):
                part = grid[edges[c] : edges[c + 1]]
                out = self.timed("sim_s", lambda: self.simulate(policy, part))
                summaries += [out] * len(part) if isinstance(out, str) else out
        with self.phase("validation"):
            self.check_estimates(policy, estimates)
            self.check_simulations(summaries)
        return {
            **self.timings,
            "kernel_s": self.kernel_s,
            "kernel_next_to": self.kernel_next_to,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "work": self.work,
        }

    def certify(self):
        """Two checked certify calls; the certified policy or None."""
        import checks
        from invarcert import cli, scenario

        analyze = self.spec["analyze"]
        with self.phase("certify"):
            first = self.timed("certify_s", lambda: cli.run_certify(self.cfg, analyze=analyze))
            second = self.timed(
                None if analyze else "certify_s", lambda: cli.run_certify(self.cfg)
            )
        with self.phase("validation"):
            reports = []
            for out in (first, second):
                if isinstance(out, str):
                    self.record("certify", [out])
                    continue
                code, report = out
                problems = [] if code == 0 else [f"exit code {code}"]
                problems += checks.certify_problems(
                    self.raw,
                    self.spec["workload"],
                    report,
                    self.cfg.scenarios.samples,
                    pin=self.spec["pin"],
                )
                if reports and not problems and not checks.same_certificate(reports[0], report):
                    problems.append("second certify call is not bit-identical to the first")
                if not reports and not problems:
                    try:
                        problems += self.resolve_problems(report)
                    except Exception as exc:
                        problems.append(_error(exc))
                self.record("certify", problems)
                if not problems:
                    reports.append(report)
            if len(reports) < 2:
                return None
            self.report = reports[0]
            self.work["s_K"] = self.report["support"]["s_K"]
            self.work["support"] = self.report["support"]["indices"]
            self.work["policy_fingerprint"] = self.report["policy"]["fingerprint"]
            policy = self.report["policy"]
            return scenario.AffinePolicy(
                gains=policy["gains"],
                offsets=policy["offsets"],
                scenario_fingerprint=policy["scenario_fingerprint"],
            )

    def resolve_problems(self, report) -> list[str]:
        """Re-solving on the support reproduces the policy, and each support
        sample is feasible on its own by minor enumeration."""
        import numpy as np

        from invarcert import feasibility, scenario

        cfg = self.cfg
        indices = report["support"]["indices"]
        samples = cfg.scenarios.samples
        sub = scenario.ScenarioSet(samples=samples[indices])
        resolved = scenario.solve_affine_policy(cfg.family, cfg.state_set, cfg.input_set, sub)
        gap = max(
            float(np.abs(resolved.gains - np.asarray(report["policy"]["gains"])).max()),
            float(np.abs(resolved.offsets - np.asarray(report["policy"]["offsets"])).max()),
        )
        problems = []
        if gap > scenario.SOLUTION_TOL:
            problems.append(f"re-solve on the support moves the policy by {gap:.3e}")
        for j in indices:
            single = feasibility.single_sample_iff(
                cfg.family, cfg.state_set, cfg.input_set, samples[j], sample_index=j
            )
            if not single.feasible:
                problems.append(f"support sample {j} infeasible by minor enumeration")
        return problems

    def estimate(self, policy):
        from invarcert import closed_loop

        cfg = self.cfg
        return closed_loop.estimate_violation(
            cfg.family,
            cfg.state_set,
            cfg.input_set,
            policy,
            cfg.scenarios.distribution,
            M=self.spec["mc_draws"],
            seed=int(cfg.options["estimate_seed"]),
        )

    def simulate(self, policy, samples) -> list:
        """One simulate call per training sample index in ``samples``."""
        import workloads
        from invarcert import cli

        spec, out = self.spec, []
        for j in samples:
            try:
                _, summary = cli.run_simulate(
                    self.cfg,
                    policy,
                    sample=self.cfg.scenarios.samples[j],
                    init=f"random:{spec['sim_starts']}",
                    horizon=spec["horizon"],
                    seed=workloads.simulation_seed(spec["seed"], j),
                )
            except Exception as exc:
                summary = _error(exc)
            out.append(summary)
        return out

    def check_estimates(self, policy, estimates) -> None:
        """Each estimate reports exactly the draws the independent check
        finds inadmissible; the repeats are therefore identical too."""
        import numpy as np

        import checks

        if policy is None:
            for _ in range(self.spec["chunks"]):
                self.record("estimate", ["no certified policy"])
            return
        box = self.raw["scenarios"]["uniform"]
        rng = np.random.default_rng(int(self.cfg.options["estimate_seed"]))
        draws = rng.uniform(
            box["lower"], box["upper"], size=(self.spec["mc_draws"], self.cfg.scenarios.ell)
        )
        ok = checks.admissible(
            self.raw, self.report["policy"]["gains"], self.report["policy"]["offsets"], draws
        )
        for est in estimates:
            if isinstance(est, str):
                self.record("estimate", [est])
                continue
            self.record("estimate", checks.estimate_problems(ok, est))
            self.work["mc_failures"] = len(est.failures)

    def check_simulations(self, summaries) -> None:
        import checks

        starts = self.spec["sim_starts"]
        for pos, j in enumerate(self.spec["sim_samples"]):
            if pos >= len(summaries):
                problem_lists = [["no certified policy"]] * starts
            elif isinstance(summaries[pos], str):
                problem_lists = [[summaries[pos]]] * starts
            else:
                problem_lists = checks.trajectory_problems(summaries[pos], starts)
            for problems in problem_lists:
                self.record("trajectory", [f"sample {j}: {p}" for p in problems])


if __name__ == "__main__":
    sys.exit(main())
