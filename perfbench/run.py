"""sqztune benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workload runs as a closed loop: one client,
one compute thread, the next op starts when the previous one returns.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs a
fixed op list once untraced and once traced and reports per-layer metrics.
Times are CPU seconds of the process (see README.md for why).  The last line
of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in every setup probe started below.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
os.environ.update({name: "1" for name in THREAD_ENV})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_STARTS = 9
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit.  Every traced function reports the metrics named
# here; functions a workload never calls report 0.
PER_LAYER_UNITS = {
    "timeseries.synthesize_round.calls": "count",
    "timeseries.synthesize_round.self_s": "s",
    "timeseries.periodogram.calls": "count",
    "timeseries.periodogram.self_s": "s",
    "timeseries.NoiseModel.target_psd.calls": "count",
    "timeseries.NoiseModel.target_psd.self_s": "s",
    "timeseries.simulate_spectrum.self_s": "s",
    "timeseries.calibrate.self_s": "s",
    "timeseries.band_power.self_s": "s",
    "timeseries.spectrum_to_csv.self_s": "s",
    "timeseries.spectrum_to_csv.bytes": "B",
    "timeseries.kernel.flops_computed": "flop",
    "timeseries.kernel.bytes_computed": "B",
    "scenarios.propagate_chain.calls": "count",
    "scenarios.propagate_chain.self_s": "s",
    "scenarios.analytic_noise.self_s": "s",
    "scenarios.run_scenario.self_s": "s",
    "scenarios.sweep.self_s": "s",
    "scenarios.load_config.self_s": "s",
    "homodyne.hd_noise_power.calls": "count",
    "homodyne.hd_noise_power.self_s": "s",
    "optics_components.opo_sideband_state.self_s": "s",
    "optics_components.apply_abi.self_s": "s",
    "optics_components.apply_uniform_loss.self_s": "s",
    "gaussian_core.apply_symplectic.calls": "count",
    "gaussian_core.apply_symplectic.self_s": "s",
    "gaussian_core.apply_loss.self_s": "s",
    "gaussian_core.partial_trace.self_s": "s",
    "gaussian_core.add_vacuum_modes.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    "trace.work_per_s_ratio": "ratio",
}


def _fft_flops(n: int) -> float:
    # Real transform of length n: half of the 5 N log2 N of a complex one.
    return 2.5 * n * math.log2(n)


def _synthesis_cost(counters: Counter, args: tuple, result) -> None:
    n = args[1].samples_per_round
    m = n // 2 + 1
    counters["timeseries.kernel.flops_computed"] += _fft_flops(n) + 8 * m
    # re, im, target (8 B per bin each), complex spectrum (16 B), trace (8 B per sample)
    counters["timeseries.kernel.bytes_computed"] += 40 * m + 8 * n


def _periodogram_cost(counters: Counter, args: tuple, result) -> None:
    n = len(args[0])
    m = n // 2 + 1
    counters["timeseries.kernel.flops_computed"] += _fft_flops(n) + 4 * m
    # trace read, complex spectrum (16 B per bin), power (8 B per bin)
    counters["timeseries.kernel.bytes_computed"] += 8 * n + 24 * m


def _csv_bytes(counters: Counter, args: tuple, result) -> None:
    counters["timeseries.spectrum_to_csv.bytes"] += len(result.encode())


def trace_targets():
    from sqztune import cli, gaussian_core, homodyne, optics_components, scenarios, timeseries
    from tracing import Target

    targets = [
        Target("timeseries.synthesize_round", timeseries, "synthesize_round", _synthesis_cost),
        Target("timeseries.periodogram", timeseries, "periodogram", _periodogram_cost),
        Target("timeseries.NoiseModel.target_psd", timeseries.NoiseModel, "target_psd"),
        Target("timeseries.spectrum_to_csv", timeseries, "spectrum_to_csv", _csv_bytes),
    ]
    plain = {
        timeseries: ("simulate_spectrum", "calibrate", "band_power"),
        scenarios: ("propagate_chain", "analytic_noise", "run_scenario", "sweep", "load_config"),
        homodyne: ("hd_noise_power",),
        optics_components: ("opo_sideband_state", "apply_abi", "apply_uniform_loss"),
        gaussian_core: ("apply_symplectic", "apply_loss", "partial_trace", "add_vacuum_modes"),
        cli: ("main",),
    }
    for module, names in plain.items():
        prefix = module.__name__.split(".")[-1]
        targets += [Target(f"{prefix}.{name}", module, name) for name in names]
    return targets


def tail(latencies: list[float], percentile: float) -> dict:
    """Nearest-rank latency at the workload's fixed tail percentile.

    The percentile is fixed per workload, so runs of a faster program report
    the same percentile; ``short`` marks a run with fewer than
    TAIL_MIN_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = math.ceil(percentile / 100.0 * n)
    return {"value": ordered[rank - 1], "percentile": percentile, "samples": n,
            "beyond": n - rank, "short": n - rank < TAIL_MIN_BEYOND}


def per_op_median(timed: list[tuple[int, tuple[float, float]]], clock: int) -> float:
    """Median latency of each distinct op, averaged over the distinct ops.

    The ops of a rotation come in kinds of different cost, so the median of
    all latencies pooled can sit on the boundary between two kinds and jump
    between them from run to run; each op's own median does not."""
    by_op: dict[int, list[float]] = {}
    for index, latency in timed:
        by_op.setdefault(index, []).append(latency[clock])
    return statistics.fmean(statistics.median(v) for v in by_op.values())


def provenance(workload, seed: int, trace: bool, seconds: float) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    from workloads import MC_ROUNDS

    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "thread_env": {name: os.environ[name] for name in THREAD_ENV},
        "mc_rounds": MC_ROUNDS if workload.name != "analytic_grid" else None,
        "work_unit": workload.unit,
    }


def setup_once(workload_name: str, seed: int, probe_dir: Path) -> tuple[float, float]:
    """(CPU seconds, wall seconds) from spawning a fresh interpreter to its
    'ready' line.  The CPU time is the interpreter's own, as it reports it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--probe-setup", str(probe_dir)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    fields = out.split()
    if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}: {out!r}")
    return float(fields[2]), float(fields[1]) - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Runner:
    """Runs ops of one workload and checks every output."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.signatures: dict[int, object] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def _checked(self, index: int, op, output) -> bool:
        # An output equal to one that passed the full check passes; any other
        # output gets the full check.
        signature = self.workload.signature(op, output)
        if self.signatures.get(index) != signature:
            problems = self.workload.check(op, output)
            if problems:
                self._fail("; ".join(problems))
                return False
            self.signatures.setdefault(index, signature)
        return True

    def _run(self, op, tracer=None) -> tuple[bool, object, tuple[float, float]]:
        self.workload.prepare(op)
        self.attempted += 1
        if tracer is not None:
            tracer.op_id = self.attempted
        start, cpu = time.perf_counter(), time.process_time()
        try:
            output = self.workload.run(op)
        except Exception:  # an op that raises counts as failed; the loop goes on
            self._fail(traceback.format_exc(limit=3))
            return False, None, (0.0, 0.0)
        return True, output, (time.process_time() - cpu, time.perf_counter() - start)

    def call(self, index: int, op, tracer=None) -> tuple[float, float] | None:
        """Run one op; return its (CPU, wall) latency, or None when it failed."""
        ok, output, latency = self._run(op, tracer)
        return latency if ok and self._checked(index, op, output) else None

    def warm_up(self, ops) -> float:
        """Run each distinct op once, so caches fill and lazy set-up finishes,
        then check the outputs.  Returns the process's peak RSS in MB, read
        after the ops and before the checks allocate anything."""
        runs = [self._run(op) for op in ops]
        peak = peak_rss_mb()
        for index, (op, (ok, output, _)) in enumerate(zip(ops, runs)):
            if ok:
                self._checked(index, op, output)
        return peak


def run_end_to_end(workload, ops, workdir: Path, seed: int, seconds: float, starts: int) -> tuple[dict, dict]:
    """Closed-loop timed pass of ``seconds`` of op wall time.  The
    fresh-interpreter setup starts are spread evenly over the pass, between
    ops, so they sample the same stretch of host time as the ops; their time
    is not op time.  Times are CPU seconds; wall figures go to the detail."""
    baseline_rss = peak_rss_mb()
    runner = Runner(workload)
    rss = runner.warm_up(ops)
    setups: list[tuple[float, float]] = []  # (CPU, wall) seconds of each setup start
    timed, units = [], 0  # (op index, (CPU, wall) latency) of each op that passed
    begin = time.perf_counter()
    paused = 0.0  # time spent in setup starts
    i = 0
    while True:
        elapsed = time.perf_counter() - begin - paused
        if len(setups) < starts and elapsed >= len(setups) * seconds / starts:
            pause = time.perf_counter()
            setups.append(setup_once(workload.name, seed, workdir / f"probe{len(setups)}"))
            paused += time.perf_counter() - pause
            continue
        if elapsed >= seconds:
            break
        index = i % len(ops)
        i += 1
        latency = runner.call(index, ops[index])
        if latency is not None:
            timed.append((index, latency))
            units += ops[index].units
    if not timed:
        raise RuntimeError("no op completed: " + " | ".join(runner.problems))

    def figures(clock: int) -> dict:
        latencies = [t[clock] for _, t in timed]
        return {"setup_s": statistics.median(t[clock] for t in setups),
                "work_per_s": units / sum(latencies),
                "op_s_p50": per_op_median(timed, clock),
                "op_s_tail": tail(latencies, workload.tail_percentile)["value"]}

    cpu = [t[0] for _, t in timed]
    tail_info = tail(cpu, workload.tail_percentile)
    metrics = {**figures(0), "peak_rss_mb": rss}
    detail = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "problems": runner.problems,
        "max_abs_z": workload.max_abs_z,
        "max_abs_z_uncorrected": workload.max_abs_z_uncorrected,
        "distinct_ops": len(ops),
        "timed_ops": i,
        "units_completed": units,
        "setup_starts_s": [t[0] for t in setups],
        "op_s_p50": {"percentile": 50, "samples": len(cpu), "distinct_ops": len({i for i, _ in timed}),
                     "pooled_median": statistics.median(cpu)},
        "op_s_tail": {k: v for k, v in tail_info.items() if k != "value"},
        "rss_mb": {"before_ops": baseline_rss, "after_warm_up_ops": rss, "end_of_run": peak_rss_mb()},
        "wall": figures(1),
        "latencies_s": cpu,
        "wall_latencies_s": [t[1] for _, t in timed],
        "latencies_op_index": [i for i, _ in timed],
    }
    return metrics, detail


def run_traced(workload, ops, out_stem: Path, repeats: int) -> tuple[dict, dict]:
    from tracing import Tracer

    runner = Runner(workload)
    runner.warm_up(ops)
    fixed = [(i % len(ops), ops[i % len(ops)]) for i in range(repeats * len(ops))]
    units = sum(op.units for _, op in fixed)
    plain = [runner.call(i, op) for i, op in fixed]

    tracer = Tracer()
    traced, written, spectra_bytes = [], 0, 0
    with tracer.installed(trace_targets()):
        for i, op in fixed:
            traced.append(runner.call(i, op, tracer))
            total, spectra = workload.bytes_written(op)
            written += total
            spectra_bytes += spectra
    restored = tracer.restored()
    tracer.write_spans(out_stem.with_suffix(".spans.csv"))

    values = {}
    for name in PER_LAYER_UNITS:
        layer, _, field = name.rpartition(".")
        stat = tracer.stats.get(layer)
        if field == "calls":
            values[name] = 0 if stat is None else stat.calls
        elif field == "self_s":
            values[name] = 0.0 if stat is None else stat.self_s
    for key in ("timeseries.spectrum_to_csv.bytes", "timeseries.kernel.flops_computed",
                "timeseries.kernel.bytes_computed"):
        values[key] = tracer.counters[key]
    values["cli.bytes_written"] = written
    ok = None not in plain and None not in traced
    plain_rate = units / sum(t[0] for t in plain) if ok else float("nan")
    traced_rate = units / sum(t[0] for t in traced) if ok else float("nan")
    values["trace.work_per_s_ratio"] = traced_rate / plain_rate

    expected = Counter()
    for _, op in fixed:
        expected.update(workload.expected_calls(op))
    counted = {name: stat.calls for name, stat in tracer.stats.items()}
    mismatches = {name: {"expected": expected[name], "counted": counted.get(name, 0)}
                  for name in expected if expected[name] != counted.get(name, 0)}
    if spectra_bytes != values["timeseries.spectrum_to_csv.bytes"]:
        mismatches["timeseries.spectrum_to_csv.bytes"] = {
            "expected": spectra_bytes, "counted": values["timeseries.spectrum_to_csv.bytes"]}
    detail = {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "problems": runner.problems,
        "traced_ops": len(fixed),
        "work_per_s_untraced": plain_rate,
        "work_per_s_traced": traced_rate,
        "spans": len(tracer.spans),
        "calls": dict(sorted(counted.items())),
        "count_mismatches": mismatches,
        "wrappers_restored": restored,
    }
    return values, detail


def execute(workload_name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            starts: int = SETUP_STARTS) -> tuple[dict, dict]:
    """Run one workload; return (result line, detail)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workdir = WORK / f"{workload_name}-{os.getpid()}"
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        ops = workload.build(seed, workdir / "main", tiny=tiny)
        if trace:
            stem = OUT / f"{workload_name}-seed{seed}-trace"
            values, detail = run_traced(workload, ops, stem, 1 if tiny else workload.trace_repeats)
            units = PER_LAYER_UNITS
            correct = detail["failed"] == 0 and detail["wrappers_restored"]
        else:
            stem = OUT / f"{workload_name}-seed{seed}"
            values, detail = run_end_to_end(workload, ops, workdir, seed, seconds, starts)
            units = END_TO_END_UNITS
            correct = detail["failed"] == 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    detail["provenance"] = provenance(workload, seed, trace, seconds)
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2) + "\n")
    result = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", type=Path, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "sqztune" / "__init__.py").is_file():
        print(f"perfbench: no sqztune sources in {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports sqztune, which builds BUILTIN_SCENARIOS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.probe_setup is not None:
        WORKLOADS[args.workload].build(args.seed, args.probe_setup)
        print("ready", repr(time.monotonic()), repr(time.process_time()), flush=True)
        return 0

    result, detail = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<14} {name:<46} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{args.workload:<14} {'error_rate':<46} {detail['error_rate']:>16.6g} fraction"
          f" ({detail['failed']}/{detail['attempted']})")
    for problem in detail["problems"]:
        print(f"perfbench: failed op: {problem}", file=sys.stderr)
    print("detail " + json.dumps({k: v for k, v in detail.items() if "latencies" not in k}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
