"""invarcert benchmark: one workload, timed end to end or traced by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke            # every workload at a tiny size

Run it from the root of a checkout; it imports ``src/invarcert`` from
there and writes its scratch files and results under ``bench/_work/``.

Each workload pass runs in a fresh single-threaded process
(``worker.py``) on the workload's one scenario draw, so every pass does the
same work; passes repeat until ``--seconds`` are used.  With
``--trace 0`` bare set-ups (import plus ``load_config``) are timed
before each pass, and the run reports every end-to-end metric: medians
of the timings, and the Monte Carlo and simulation throughputs as all
their work over all their time in the run.  Each timing is reported at
the reference speed: multiplied by ``REF_NOMINAL_S`` over the time of a
fixed numpy kernel measured next to it in the same process (see
``worker.calibration_kernel``), which takes out the speed of a shared
host that drifts by 1.5x over minutes; the raw figures are printed and
kept in the result file as well.  With ``--trace 1`` one
untraced reference pass runs, then traced passes; the run reports the
per-layer metrics and the tracing overhead.  Every run
ends with an untimed cross-check of the real CLI (two subprocess
``certify`` runs whose reports must be byte-identical and agree with the
in-process run).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are the ones declared in ``BENCHMARK.json``.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import REF_NOMINAL_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3  # bare set-ups timed before each untraced pass, besides its own
CHUNKS = 4  # estimates per pass, each followed by a quarter of the grid
MIN_PASSES = 2
CLI_ESTIMATE = 200  # M of the CLI cross-check
PASS_TIMEOUT_S = 170
SMOKE_FACTOR = 0.1
SMOKE_SECONDS = 1


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {
        "run_seconds": bench["run_seconds"],
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


class Run:
    """Scratch directory, config, spec and subprocesses of one run."""

    def __init__(self, w: workloads.Workload, seed: int, smoke: bool):
        self.workload = w
        tag = f"{w.name}-seed{seed}" + ("-smoke" if smoke else "")
        self.dir = WORK_DIR / tag
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = worker_env()
        self.config_path = self.dir / "config.json"
        self.spec_path = self.dir / "spec.json"
        self.config_path.write_text(json.dumps(workloads.make_config(w, seed)))
        spec = {
            "workload": w.name,
            "seed": seed,
            "config": str(self.config_path),
            "analyze": w.analyze,
            "mc_draws": w.mc_draws,
            "chunks": CHUNKS,
            "sim_samples": list(range(w.sim_samples)),
            "sim_starts": w.sim_starts,
            "horizon": w.horizon,
            "pin": not smoke,
        }
        self.spec_path.write_text(json.dumps(spec))

    def worker(self, *extra) -> tuple[dict | None, float, str]:
        """Run worker.py once; (its JSON or None, wall s, error)."""
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--spec", str(self.spec_path)]
        t = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + list(extra),
                capture_output=True,
                text=True,
                env=self.env,
                cwd=ROOT,
                timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t, f"worker exceeded {PASS_TIMEOUT_S}s"
        wall = time.perf_counter() - t
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            return None, wall, lines[-1] if lines else f"worker exit code {proc.returncode}"
        return json.loads(proc.stdout.strip().splitlines()[-1]), wall, ""

    def cli_cross_check(self, work: dict) -> list[str]:
        """Two concurrent CLI certify runs: same bytes, and the s_K and
        policy fingerprint of the in-process run (``work`` of a pass)."""
        cmd = [sys.executable, "-m", "invarcert.cli", "certify"]
        cmd += ["--config", str(self.config_path)]
        if self.workload.analyze:
            cmd.append("--analyze")
        cmd += ["--estimate", str(CLI_ESTIMATE)]
        procs, outputs = [], []
        try:
            for _ in range(2):
                procs.append(
                    subprocess.Popen(
                        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, cwd=ROOT
                    )
                )
            for proc in procs:
                try:
                    out, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    out, _ = proc.communicate()
                outputs.append((proc.returncode, out))
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        problems = [f"cli exit code {code}" for code, _ in outputs if code != 0]
        if problems:
            return problems
        if outputs[0][1] != outputs[1][1]:
            problems.append("cli reports differ between two runs")
        report = json.loads(outputs[0][1])
        if report["support"]["s_K"] != work.get("s_K"):
            problems.append(f"cli s_K {report['support']['s_K']} != in-process {work.get('s_K')}")
        if report["policy"]["fingerprint"] != work.get("policy_fingerprint"):
            problems.append("cli policy fingerprint != in-process fingerprint")
        return problems


def percentile_summary(values) -> dict:
    """Median, sample count, and the highest listed percentile that has at
    least ten samples beyond it (None when there are too few samples)."""
    values = sorted(values)
    n = len(values)
    out = {"n": n, "median": statistics.median(values) if values else None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - p / 100) >= 10:
            rank = min(n - 1, int(round(p / 100 * (n - 1))))
            out["p"], out["p_value"] = p, values[rank]
            break
    return out


def passes(run: Run, seconds: float, *, probes=0, traced=False) -> tuple:
    """Worker passes until the time is used (at least :data:`MIN_PASSES`):
    the next pass starts only while one more like the last still fits, so
    a run measures for at most about ``seconds``.

    ``probes`` bare set-ups are timed before each pass.  With ``traced``
    every pass but the first is traced; otherwise every pass calibrates.
    """
    results, setups, t0 = [], [], time.perf_counter()
    calibrate = () if traced else ("--calibrate",)
    while True:
        t = time.perf_counter()
        setups.extend(run.worker("--setup-only", *calibrate) for _ in range(probes))
        extra = ("--trace-out", str(run.dir / "trace.npz")) if traced and results else calibrate
        results.append(run.worker(*extra))
        now = time.perf_counter()
        if len(results) >= MIN_PASSES and (now - t0) + (now - t) > seconds:
            return results, setups


def tally(results, attempted: dict, failed: dict, problems: list, workload) -> None:
    expected = {
        "certify": 2,
        "estimate": CHUNKS,
        "trajectory": workload.sim_samples * workload.sim_starts,
    }
    for result, _, error in results:
        if result is None:
            for kind, count in expected.items():
                attempted[kind] = attempted.get(kind, 0) + count
                failed[kind] = failed.get(kind, 0) + count
            problems.append(f"pass failed: {error}")
            continue
        for kind, count in result["attempted"].items():
            attempted[kind] = attempted.get(kind, 0) + count
        for kind, count in result["failed"].items():
            failed[kind] = failed.get(kind, 0) + count
        problems.extend(result["problems"])


def at_reference(seconds: float, kernel_s: float) -> float:
    """A timing at the reference speed, from the kernel time measured with it.

    Short timings (a set-up, an estimate, a slice of the simulation grid)
    use the kernel times just before and just after them, and a pass's
    wall time the mean kernel time of the pass.  A certify call takes
    seconds with only two kernel times around it, too few to gauge the
    host's speed over it, so it uses the mean kernel time of the run.
    """
    return seconds * REF_NOMINAL_S / kernel_s


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict, list]:
    results, setups = passes(run, seconds, probes=SETUP_PROBES)
    good = [r for r, _, _ in results if r is not None]
    walls = [(r, wall) for r, wall, _ in results if r is not None]
    bare = [r for r, _, _ in setups if r] + good
    kernels = [k for r in good for k in r["kernel_s"]]
    run_kernel = statistics.fmean(kernels) if kernels else None
    timings = {
        "setup_s": [(r["setup_s"], r["setup_kernel_s"]) for r in bare],
        "certify_s": [(t, run_kernel) for r in good for t in r["certify_s"]],
        "total_s": [(wall, statistics.fmean(r["kernel_s"])) for r, wall in walls],
    }
    samples = {name: [at_reference(*pair) for pair in v] for name, v in timings.items()}
    samples["peak_rss_mb"] = [r["peak_rss_mb"] for r in good]
    stats = {name: percentile_summary(v) for name, v in samples.items()}
    samples["raw_passes"] = [  # the raw timings and kernel times, for the record
        {k: r[k] for k in ("certify_s", "mc_s", "sim_s", "kernel_s", "kernel_next_to")}
        for r in good
    ]
    raw = {name: statistics.median(t for t, _ in v) for name, v in timings.items() if v}
    # Throughputs are work completed over the time it took, across the whole
    # run: short estimate and simulation calls land in fast or slow phases of
    # a shared host, and a median of a few such calls flips between them.
    for name, work, key in (
        ("mc_draws_per_s", lambda r: r["work"]["M"] * len(r["mc_s"]), "mc_s"),
        ("sim_steps_per_s", lambda r: r["work"]["steps"], "sim_s"),
    ):
        timed = [r for r in good if r[key]]
        spent = [
            sum(at_reference(*pair) for pair in zip(r[key], r["kernel_next_to"][key]))
            for r in timed
        ]
        samples[name] = [work(r) / t for r, t in zip(timed, spent)]  # per pass, for the record
        stats[name] = {
            "n": sum(len(r[key]) for r in timed),
            "value": sum(work(r) for r in timed) / sum(spent) if spent else None,
        }
        raw_spent = sum(sum(r[key]) for r in timed)
        raw[name] = sum(work(r) for r in timed) / raw_spent if raw_spent else None
    for name, entry in stats.items():
        if name in raw:
            entry["raw"] = raw[name]
    return stats, samples, results


def traced(run: Run, seconds: float) -> tuple[dict, list, dict]:
    """One untraced reference pass, then traced passes."""
    results, _ = passes(run, seconds, traced=True)
    reference, traced_results = results[0], results[1:]
    good = [r for r, _, _ in traced_results if r is not None]
    layers = {}
    unsteady = []
    for name in good[0]["layers"] if good else []:
        values = [r["layers"][name] for r in good]
        if isinstance(values[0], int) and len(set(values)) > 1:
            unsteady.append(f"work count {name} differs between passes: {values}")
        layers[name] = statistics.median(values)
    walls = [w for r, w, _ in traced_results if r is not None]
    if walls and reference[0] is not None:
        layers["trace.total_s"] = statistics.median(walls)
        layers["trace.untraced_total_s"] = reference[1]
        layers["trace.overhead_share"] = layers["trace.total_s"] / reference[1] - 1.0
    split = good[0]["certify_split"] if good else {}
    return layers, results, {"certify_split": split, "unsteady": unsteady}


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<14} {note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    declared = declared_metrics()
    workload = workloads.WORKLOADS[name]
    if smoke:
        workload = workload.scaled(SMOKE_FACTOR)
    run = Run(workload, seed, smoke)
    t0 = time.perf_counter()
    if trace:
        values, results, extra = traced(run, seconds)
        stats, samples = {}, {}
        units = declared["per_layer"]
    else:
        stats, samples, results = end_to_end(run, seconds)
        values = {k: v["value"] if "value" in v else v["median"] for k, v in stats.items()}
        extra = {}
        units = declared["end_to_end"]
    measured_s = time.perf_counter() - t0

    attempted, failed, problems = {}, {}, []
    tally(results, attempted, failed, problems, workload)
    good = [r for r, _, _ in results if r is not None]
    work = [r["work"] for r in good]
    problems.extend(extra.get("unsteady", []))
    if any(w != work[0] for w in work):
        problems.append("work counts differ between passes")
    cli_problems = run.cli_cross_check(results[0][0]["work"] if results[0][0] else {})
    attempted["cli_certify"] = 2
    failed["cli_certify"] = 2 if cli_problems else 0
    problems.extend(cli_problems)

    missing = [m for m in units if values.get(m) is None]
    unknown = sorted(set(values) - set(units))
    metrics = {
        m: {"value": values[m], "unit": units[m]} for m in units if values.get(m) is not None
    }
    total_attempted, total_failed = sum(attempted.values()), sum(failed.values())
    correct = total_failed == 0 and not problems and not missing and not unknown
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "seconds": seconds,
        "measured_s": measured_s,
        "passes": len(results),
        "machine": machine_info(),
        "definition": workload.__dict__,
        "stats": stats,
        "samples": samples,
        "work": work,
        "attempted": attempted,
        "failed": failed,
        "error_rate": total_failed / max(1, total_attempted),
        "problems": problems[:50],
        "missing_metrics": missing,
        "unknown_metrics": unknown,
        **extra,
    }
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{int(trace)}" + ("-smoke" if smoke else "")
    (results_dir / f"{tag}.json").write_text(json.dumps({**summary, "metrics": metrics}, indent=1))

    info = summary["machine"]
    print(
        f"# {name} seed={seed} trace={int(trace)} passes={len(results)} "
        f"measured={measured_s:.1f}s | {info['cpu']}, nproc={info['nproc']}, "
        f"python {info['python']}, numpy {info['numpy']}, {info['blas']}"
    )
    rows = []
    for m, entry in metrics.items():
        s = stats.get(m, {})
        note = f"n={s['n']}" + (", work over time of the run" if "value" in s else "") if s else ""
        if s.get("p") is not None:
            note += f" p{s['p']:g}={s['p_value']:.6g}"
        if s.get("raw") is not None:
            note += f" raw={s['raw']:.6g}"
        rows.append((m, entry["value"], entry["unit"], note))
    rows.append(("error_rate", summary["error_rate"], "fraction", f"{total_failed}/{total_attempted}"))
    print_table("metrics:", rows)
    if extra.get("certify_split"):
        split = extra["certify_split"]
        busy = sum(split.values()) or 1.0
        shares = ", ".join(
            f"{k} {v / busy:.1%}" for k, v in sorted(split.items(), key=lambda kv: -kv[1])
        )
        print(f"certify self time by layer: {shares}")
    for i, w in enumerate(work):
        print(
            f"work of pass {i}: K={w['K']} s_K={w.get('s_K')} M={w['M']} "
            f"steps={w['steps']} support={w.get('support')}"
        )
    for p in problems[:10]:
        print(f"problem: {p}")
    if missing or unknown:
        print(f"problem: metrics missing {missing}, undeclared {unknown}")
    return {
        "correct": correct,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": metrics,
    }


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes and a short budget; with no --workload, every workload, both modes",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "invarcert" / "__init__.py").is_file():
        sys.stderr.write(f"error: no invarcert sources under {ROOT / 'src'}\n")
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.stderr.write(f"error: {ROOT / 'BENCHMARK.json'} is missing\n")
        return 2
    if args.smoke:
        return smoke(args)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    seconds = args.seconds if args.seconds is not None else declared_metrics()["run_seconds"]
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace), smoke=False)
    print(json.dumps(result))
    return 0


def smoke(args) -> int:
    """Every workload (or the named one) at a tiny size, in both modes; fails
    unless each run is correct and reports every declared metric."""
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    seconds = args.seconds if args.seconds is not None else SMOKE_SECONDS
    ok = True
    for name in names:
        for trace in (False, True):
            result = run_workload(name, args.seed, seconds, trace, smoke=True)
            ok &= result["correct"]
            print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
