"""Steadiness report: run every workload repeatedly and show how much each
end-to-end metric moves, so bounds rest on evidence.

    python3 perfbench/steadiness.py --runs 10 --sets 2

``--runs 1 --sets 1`` prints every end-to-end metric of every workload once,
with its unit, the samples behind it, and error_rate.

Each set runs every workload once per seed (set k uses seeds
base + k*runs .. base + (k+1)*runs - 1).  For each (workload, metric) it
prints the median and quartiles of each set, the spread (Q3 - Q1) / median,
and how far the last set's median moved from the first set's.  On unchanged
code a move either way is noise, so the drift is judged by its size.  A
spread above a third of the metric's bound is flagged (the benchmark is meant
to stay below that), and a spread or a drift above the bound is marked FAIL,
setup_s included.  The setup_s rows and the tail rows are the known weak spots:
setup_s rows give the setup starts behind each run, and tail rows the fewest
samples any run had beyond its tail percentile, flagged when under 10.  Each
timing row also gives the spreads and drift of the same figure in wall-clock
time, which the host's stolen time inflates.  With ``--traced`` it also runs each
workload's traced run twice and checks that every count repeats exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNT_UNITS = ("count", "B", "flop")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = next(json.loads(l[len("detail "):]) for l in lines if l.startswith("detail "))
    detail["wall_s"] = wall
    return json.loads(lines[-1]), detail


def describe(result: dict, detail: dict) -> str:
    """Every end-to-end metric with its unit and the samples behind it, and error_rate."""
    parts = []
    for name, metric in result["metrics"].items():
        text = f"{name}={metric['value']:.6g} {metric['unit']}"
        if name == "setup_s":
            text += f" (median of {len(detail['setup_starts_s'])} starts)"
        elif name in ("op_s_p50", "op_s_tail"):
            info = detail[name]
            text += f" (p{info['percentile']:g} of {info['samples']} ops"
            text += f", {info['beyond']} beyond)" if name == "op_s_tail" else f", per op of {info['distinct_ops']})"
        parts.append(text)
    parts.append(f"error_rate={detail['error_rate']:.6g} ({detail['failed']}/{detail['attempted']})")
    parts.append(f"run took {detail['wall_s']:.1f} s")
    return "; ".join(parts)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median), quartiles as statistics.quantiles gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--traced", action="store_true", help="also check traced counts repeat")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    # values[workload][metric][set] -> list of run values
    values = {w: {m: [[] for _ in range(args.sets)] for m in metrics} for w in workloads}
    wall = {w: {m: [[] for _ in range(args.sets)] for m in metrics} for w in workloads}
    beyond = {w: [] for w in workloads}
    starts = {w: [] for w in workloads}
    failed = {w: 0 for w in workloads}
    walls = {w: [] for w in workloads}
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.seed_base + s * args.runs + i
            for w in workloads:
                result, detail = run_once(w, seed, seconds, 0)
                failed[w] += result["failed"] + (not result["correct"])
                for m in metrics:
                    values[w][m][s].append(result["metrics"][m]["value"])
                    if m in detail["wall"]:
                        wall[w][m][s].append(detail["wall"][m])
                beyond[w].append(detail["op_s_tail"]["beyond"])
                starts[w].append(len(detail["setup_starts_s"]))
                walls[w].append(detail["wall_s"])
                print(f"set {s} seed {seed} {w}: {describe(result, detail)}", flush=True)

    report = []
    print(f"\n{'workload':<14} {'metric':<12} {'bound':>6} "
          + " ".join(f"{'set%d median [Q1, Q3] spread' % s:>40}" for s in range(args.sets))
          + f" {'drift':>8}  {'wall-clock spreads, drift':<27} verdict")
    for w in workloads:
        for m, meta in metrics.items():
            bound = meta["bound"]
            stats = [spread(v) for v in values[w][m]]
            first, last = stats[0][0], stats[-1][0]
            drift = (last - first) / first
            worst = max(st[3] for st in stats)
            verdict = "ok"
            if abs(drift) > bound or worst > bound:
                verdict = "FAIL"
            elif worst > bound / 3 or abs(drift) > bound / 3:
                verdict = "wide (spread or |drift| > bound/3)"
            if m == "op_s_tail":
                fewest = min(beyond[w])
                verdict += f"; fewest beyond tail {fewest}" + (" (<10, SHORT)" if fewest < 10 else "")
            if m == "setup_s":
                verdict += f"; median of {min(starts[w])}+ starts per run"
            cells = " ".join(f"{st[0]:>12.6g} [{st[1]:.5g}, {st[2]:.5g}] {st[3]:6.3f}" for st in stats)
            wall_stats = [spread(v) for v in wall[w][m]] if wall[w][m][0] else []
            wall_cell = "-"
            if wall_stats:
                wall_drift = (wall_stats[-1][0] - wall_stats[0][0]) / wall_stats[0][0]
                wall_cell = " ".join(f"{st[3]:.3f}" for st in wall_stats) + f", {wall_drift:+.3f}"
            print(f"{w:<14} {m:<12} {bound:>6.3f} {cells} {drift:>+8.3f}  {wall_cell:<27} {verdict}")
            report.append({"workload": w, "metric": m, "bound": bound, "drift": drift, "verdict": verdict,
                           "sets": [dict(zip(("median", "q1", "q3", "spread"), st)) for st in stats],
                           "values": values[w][m], "wall_values": wall[w][m]})
    for w in workloads:
        print(f"{w}: {failed[w]} failed ops or incorrect runs; a run took {statistics.mean(walls[w]):.1f} s "
              f"on average, {max(walls[w]):.1f} s at most")

    traced_ok = True
    if args.traced:
        for w in workloads:
            runs = [run_once(w, args.seed_base, seconds, 1) for _ in range(2)]
            counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in COUNT_UNITS}
                      for r, _ in runs]
            same = counts[0] == counts[1] and runs[0][1]["calls"] == runs[1][1]["calls"]
            mismatched = [r[1]["count_mismatches"] for r in runs if r[1]["count_mismatches"]]
            ratios = [r["metrics"]["trace.work_per_s_ratio"]["value"] for r, _ in runs]
            traced_ok &= same and not mismatched
            print(f"{w}: traced counts repeat exactly: {same}; input-derived count mismatches: "
                  f"{mismatched or 'none'}; traced/untraced work_per_s: "
                  + ", ".join(f"{x:.3f}" for x in ratios))

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=2) + "\n")
    ok = traced_ok and not any(r["verdict"].startswith("FAIL") for r in report)
    ok &= not any(failed.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
