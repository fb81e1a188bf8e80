"""Steadiness check of the benchmark: seeds x workloads, one or two sets.

    python3 bench/steady.py [--workloads A B ...] [--seeds 1-10] [--sets 2]
                            [--trace 0|1] [--seconds S]

For every workload it runs ``run.py`` once per seed (and again for the
second set), then reports for each end-to-end metric the spread of the
values over the seeds -- the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the
median -- next to the metric's bound and a third of it, and, with two
sets, how far the second median moved from the first in the metric's
worse direction.  The deterministic work counts (K, s_K, support, policy
fingerprint, M, Monte Carlo failures, steps of every pass both sets ran;
with ``--trace 1`` every count-valued layer metric) must be identical
between the sets seed by seed.  A summary is written to ``bench/_work/steady-trace<t>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, trace: int, seconds) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    details = json.loads(
        (BENCH_DIR / "_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    counts = {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] == "count"
    }
    return {"result": result, "work": details["work"], "counts": counts}


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    seeds = seed_list(args.seeds)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs = {}  # (set, workload, seed) -> run
    for s in range(args.sets):
        for workload in args.workloads:
            for seed in seeds:
                run = one_run(workload, seed, args.trace, args.seconds)
                runs[s, workload, seed] = run
                r = run["result"]
                print(
                    f"set {s + 1} {workload} seed {seed}: correct={r['correct']} "
                    f"failed={r['failed']}/{r['attempted']}",
                    flush=True,
                )

    ok = True
    summary = {}
    for workload in args.workloads:
        print(f"\n{workload}")
        rows = {}
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            per_set = [
                [runs[s, workload, seed]["result"]["metrics"][name]["value"] for seed in seeds]
                for s in range(args.sets)
            ]
            if bound is None and m["unit"] == "count":
                continue
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) if len(v) >= 2 and medians[i] else 0.0 for i, v in enumerate(per_set)]
            row = {"medians": medians, "spreads": spreads}
            line = f"  {name:<40} median {medians[0]:<12.6g} spread " + " ".join(
                f"{x:.3f}" for x in spreads
            )
            if bound is not None:
                row["bound"] = bound
                line += f"  bound {bound} (third {bound / 3:.3f})"
                if max(spreads) > bound:
                    ok = False
                    line += "  SPREAD OVER BOUND"
                if args.sets == 2:
                    sign = 1.0 if m["better"] == "lower" else -1.0
                    drift = sign * (medians[1] - medians[0]) / medians[0]
                    row["drift"] = drift
                    line += f"  drift {drift:+.3f}"
                    if drift > bound:
                        ok = False
                        line += "  DRIFT OVER BOUND"
            rows[name] = row
            print(line)
        if args.sets == 2:
            for seed in seeds:
                a, b = runs[0, workload, seed], runs[1, workload, seed]
                n = min(len(a["work"]), len(b["work"]))  # passes both sets ran
                if a["work"][:n] != b["work"][:n] or a["counts"] != b["counts"]:
                    ok = False
                    print(f"  work counts differ between sets at seed {seed}")
        correct = all(
            runs[s, workload, seed]["result"]["correct"]
            for s in range(args.sets)
            for seed in seeds
        )
        ok &= correct
        summary[workload] = {"metrics": rows, "all_correct": correct}

    out = BENCH_DIR / "_work" / f"steady-trace{args.trace}.json"
    out.write_text(json.dumps({"seeds": seeds, "sets": args.sets, "workloads": summary}, indent=1))
    print(f"\nsteady: {'yes' if ok else 'NO'} (summary in {out.relative_to(ROOT)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
