"""The three benchmark workloads.

Each workload builds its op list from the seed alone, runs one op as a single
user-level call into sqztune (``sweep``, ``run_scenario`` or ``cli.main``),
checks an op's outputs, and derives from an op's inputs how many calls it
makes into each traced layer.  Functions are looked up on their module at
call time, so the tracer's wrappers are the ones called while it is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from sqztune import cli, scenarios, timeseries

# Largest accepted |z| of an MC band power against its expected value, in band
# standard errors.  First-order standard errors understate the spread of a
# ratio at 16 rounds: z has mean ~0 and standard deviation ~1.3 (160 bands,
# largest |z| 3.3), so 7 is not reached by chance in the thousand-odd bands
# a two-set steadiness report checks.
Z_MAX = 7.0
# A sweep point at a builtin's own setting must reproduce the builtin's row.
ANCHOR_TOL_DB = 1e-9
# Below about 12 rounds the whole-grid calibration check fails on a share of
# seeds (SNL estimate under the electronic estimate in some bin), which is a
# robustness defect of its own; 16 rounds keeps that chance below 1e-4 per seed.
MC_ROUNDS = 16


@dataclass(frozen=True)
class Op:
    """One user-level call and the inputs its checks need."""

    cfg: scenarios.ScenarioConfig
    units: int  # user-visible work units the op completes
    parameter: str | None = None  # sweep axis; None runs the whole scenario
    values: tuple[float, ...] = ()
    seed: int | None = None
    anchor: tuple[float, float] | None = None  # the builtin's own value, and its pump
    argv: tuple[str, ...] = ()
    out_dir: Path | None = None


def _reduced(name: str, **acquisition) -> scenarios.ScenarioConfig:
    cfg = scenarios.BUILTIN_SCENARIOS[name]
    return replace(cfg, acquisition=replace(cfg.acquisition, **acquisition))


def _finite(*values) -> bool:
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _file_sha256(path: Path) -> str:
    with path.open("rb") as fh:  # streamed: the harness keeps no file in memory
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _has_abi(cfg: scenarios.ScenarioConfig) -> bool:
    return any(isinstance(e, scenarios.AbiSpec) for e in cfg.chain)


def scenario_calls(cfg: scenarios.ScenarioConfig, mode: str, pumps: int | None = None,
                   thetas: int | None = None) -> Counter:
    """Calls one ``run_scenario`` makes into each traced layer, from its inputs."""
    pumps = len(cfg.pump_sweep_mw) if pumps is None else pumps
    thetas = len(cfg.hd.thetas_rad) if thetas is None else thetas
    bands = len(cfg.hd.analysis_mhz)
    calls = Counter({"scenarios.run_scenario": 1})
    if mode in ("analytic", "both"):
        points = pumps * thetas * bands
        for name in ("scenarios.analytic_noise", "scenarios.propagate_chain",
                     "optics_components.opo_sideband_state", "homodyne.hd_noise_power"):
            calls[name] = points
        if _has_abi(cfg):
            calls["optics_components.apply_abi"] = points
            calls["gaussian_core.apply_symplectic"] = points
    if mode in ("montecarlo", "both"):
        mc_pumps = pumps if cfg.mc_pump_mw is None else len(cfg.mc_pump_mw)
        signals = mc_pumps * thetas
        records = (2 + signals) * cfg.acquisition.rounds
        calls["timeseries.simulate_spectrum"] = 2 + signals
        for name in ("timeseries.synthesize_round", "timeseries.periodogram",
                     "timeseries.NoiseModel.target_psd"):
            calls[name] = records
        calls["timeseries.calibrate"] = signals
        calls["timeseries.band_power"] = signals * bands
    return calls


def sweep_calls(op: Op, mode: str) -> Counter:
    """Calls one ``sweep`` makes: one single-pump, two-phase run per value."""
    calls = Counter({"scenarios.sweep": 1})
    per_value = scenario_calls(replace(op.cfg, mc_pump_mw=None), mode, pumps=1, thetas=2)
    for _ in op.values:
        calls.update(per_value)
    return calls


def _sweep_problems(op: Op, records, mode: str, anchor_db: tuple[float, float] | None = None) -> list[str]:
    if len(records) != len(op.values):
        return [f"{len(records)} sweep records for {len(op.values)} values"]
    problems = []
    keys = ("squeezed_db", "antisqueezed_db")
    if mode == "both":
        keys += ("squeezed_mc_db", "antisqueezed_mc_db")
    for rec, value in zip(records, op.values):
        if rec["value"] != value or not _finite(*(rec[k] for k in keys)):
            problems.append(f"sweep record {rec} is not finite or not at {value}")
    if anchor_db is not None:
        value, (squeezed, antisqueezed) = op.anchor[0], anchor_db
        rec = records[op.values.index(value)]
        if (abs(rec["squeezed_db"] - squeezed) > ANCHOR_TOL_DB
                or abs(rec["antisqueezed_db"] - antisqueezed) > ANCHOR_TOL_DB):
            problems.append(f"{op.cfg.name} {op.parameter}={value}: sweep {rec} != builtin row "
                            f"({squeezed}, {antisqueezed})")
    return problems


def band_bins(acq: timeseries.AcquisitionParams) -> int:
    grid = acq.grid_mhz
    half = acq.band_width_mhz / 2.0
    pad = 1e-9 * max(1.0, abs(acq.band_center_mhz))
    return int(((grid >= acq.band_center_mhz - half - pad) & (grid <= acq.band_center_mhz + half + pad)).sum())


def calibrated_band_stderr(value: float, floor: float, rounds: int, bins: int) -> float:
    """Standard error of a calibrated band power whose true value is ``value``.

    The corrected spectrum is (S - E) / (N - E) with signal S = value + floor,
    shot noise N = 1 + floor and electronic noise E = floor.  Each periodogram
    bin has standard deviation equal to its mean per round, and the band
    averages ``bins`` independent bins.
    """
    var = (value + floor) ** 2 + (value * (1.0 + floor)) ** 2 + ((value - 1.0) * floor) ** 2
    return math.sqrt(var / (rounds * bins))


def expected_calibrated(value: float, floor: float, rounds: int) -> float:
    """Mean of a calibrated band power whose true value is ``value``.

    (S - E) / (N - E) is a ratio of per-bin means over ``rounds``
    periodograms, so to second order its mean exceeds the true value by
    (value * ((1 + floor)^2 + floor^2) - floor^2) / rounds.  At 16 rounds
    that is about two band standard errors; at 500 rounds, a third of one.
    """
    return value + (value * ((1.0 + floor) ** 2 + floor**2) - floor**2) / rounds


def z_scores(mc_db: float, analytic_db: float, stderr: float, floor: float, rounds: int) -> tuple[float, float]:
    """(z against the analytic value, z against its expected calibrated value)."""
    mc, value = 10.0 ** (mc_db / 10.0), 10.0 ** (analytic_db / 10.0)
    return (mc - value) / stderr, (mc - expected_calibrated(value, floor, rounds)) / stderr


class Workload:
    """Defaults for workloads whose ops write no files."""

    # Largest |z| seen by the MC-versus-analytic check, against the expected
    # calibrated value (the one checked) and against the analytic value.
    max_abs_z = 0.0
    max_abs_z_uncorrected = 0.0

    def _z_problem(self, label: str, mc_db: float, analytic_db: float, stderr: float,
                   cfg: scenarios.ScenarioConfig) -> list[str]:
        raw, z = z_scores(mc_db, analytic_db, stderr, cfg.electronic_floor, cfg.acquisition.rounds)
        self.max_abs_z = max(self.max_abs_z, abs(z))
        self.max_abs_z_uncorrected = max(self.max_abs_z_uncorrected, abs(raw))
        return [f"{label}: z = {z:.2f}"] if abs(z) > Z_MAX else []

    def prepare(self, op: Op) -> None:
        pass

    def bytes_written(self, op: Op) -> tuple[int, int]:
        return 0, 0


class McSweep(Workload):
    """MC pump sweeps on the direct (fig4b) and the tuned (fig5c) chain."""

    name = "mc_sweep"
    unit = "MC sweep points (value x theta)"
    tail_percentile = 70
    trace_repeats = 2

    def build(self, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
        rng = random.Random(seed)
        cfgs = {n: _reduced(n, rounds=MC_ROUNDS) for n in ("fig4b", "fig5c")}
        ops = []
        for name in ("fig4b", "fig5c") * (1 if tiny else 2):
            values = tuple(round(rng.uniform(150.0, 750.0), 1) for _ in range(2))
            ops.append(Op(cfgs[name], 2 * len(values), "pump_mw", values, rng.randrange(2**31)))
        return ops

    def run(self, op: Op):
        return scenarios.sweep(op.cfg, op.parameter, op.values, mode="both", seed=op.seed)

    def check(self, op: Op, records) -> list[str]:
        problems = _sweep_problems(op, records, "both")
        if problems:
            return problems
        acq = op.cfg.acquisition
        bins = band_bins(acq)
        for rec in records:
            for branch in ("squeezed", "antisqueezed"):
                analytic = rec[f"{branch}_db"]
                stderr = calibrated_band_stderr(10.0 ** (analytic / 10.0), op.cfg.electronic_floor,
                                                acq.rounds, bins)
                problems += self._z_problem(f"{op.cfg.name} pump {rec['value']} {branch}",
                                            rec[f"{branch}_mc_db"], analytic, stderr, op.cfg)
        return problems

    def signature(self, op: Op, records):
        return json.dumps(records)

    def expected_calls(self, op: Op) -> Counter:
        return sweep_calls(op, "both")


class AnalyticGrid(Workload):
    """Analytic sweeps of three parameters on fig4b and fig5c, plus fig5a."""

    name = "analytic_grid"
    unit = "analytic (pump, theta, nu) points"
    tail_percentile = 90
    trace_repeats = 20
    # Values per sweep: a fig5c point costs about three fig4b points, so the
    # ops take about the same time and the percentiles do not sit on the
    # boundary between two op kinds.
    VALUES = {"fig4b": 12, "fig5c": 4}
    RANGES = {"pump_mw": (90.0, 810.0), "delta_theta_rad": (-0.3, 0.3), "hd_efficiency": (0.5, 1.0)}

    def __init__(self) -> None:
        self._rows: dict | None = None

    def _builtin_db(self, name: str, pump: float) -> tuple[float, float]:
        """(squeezed, antisqueezed) analytic dB of a builtin's own row at ``pump``."""
        if self._rows is None:
            self._rows = {}
            for cfg_name in self.VALUES:
                cfg = scenarios.BUILTIN_SCENARIOS[cfg_name]
                for row in scenarios.run_scenario(cfg, mode="analytic").rows:
                    self._rows[cfg_name, row.pump_mw, round(math.degrees(row.theta_rad))] = row.analytic_db
        return self._rows[name, pump, 0], self._rows[name, pump, 90]

    def build(self, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
        rng = random.Random(seed)
        builtins = scenarios.BUILTIN_SCENARIOS
        ops = []
        for _ in range(1 if tiny else 3):
            for parameter, (lo, hi) in self.RANGES.items():
                for name, count in self.VALUES.items():
                    cfg = builtins[name]
                    if parameter == "pump_mw":
                        anchor_value = rng.choice(cfg.pump_sweep_mw)
                        pump = anchor_value
                    else:
                        hd = cfg.hd
                        anchor_value = hd.delta_theta_rad if parameter == "delta_theta_rad" else hd.efficiency
                        pump = cfg.pump_sweep_mw[0]
                    values = [round(rng.uniform(lo, hi), 4) for _ in range(count - 1)]
                    values.insert(rng.randrange(count), anchor_value)
                    ops.append(Op(cfg, 2 * count, parameter, tuple(values), anchor=(anchor_value, pump)))
            beat = builtins["fig5a"]
            ops.append(Op(beat, len(beat.pump_sweep_mw) * len(beat.hd.thetas_rad) * len(beat.hd.analysis_mhz)))
        return ops

    def run(self, op: Op):
        if op.parameter is None:
            return scenarios.run_scenario(op.cfg, mode="analytic")
        return scenarios.sweep(op.cfg, op.parameter, op.values, mode="analytic")

    def check(self, op: Op, output) -> list[str]:
        if op.parameter is not None:
            return _sweep_problems(op, output, "analytic", self._builtin_db(op.cfg.name, op.anchor[1]))
        problems = [] if output.reference_ok else [f"{op.cfg.name}: reference check failed"]
        if len(output.rows) != op.units or not _finite(*(r.analytic_db for r in output.rows)):
            problems.append(f"{op.cfg.name}: analytic rows missing or not finite")
        return problems

    def signature(self, op: Op, output):
        if op.parameter is not None:
            return json.dumps(output)
        return (output.reference_ok, tuple((r.quantity, r.analytic_db) for r in output.rows))

    def expected_calls(self, op: Op) -> Counter:
        if op.parameter is None:
            return scenario_calls(op.cfg, "analytic")
        return sweep_calls(op, "analytic")


class RunExport(Workload):
    """``sqztune run <config.json> --mode both --out <dir> --format json``."""

    name = "run_export"
    unit = "scenario runs"
    tail_percentile = 55
    trace_repeats = 2
    SCENARIOS = ("fig4a", "fig5a", "fig5b")

    def build(self, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
        rng = random.Random(seed)
        (workdir / "configs").mkdir(parents=True, exist_ok=True)
        ops = []
        for name in self.SCENARIOS:
            path = workdir / "configs" / f"{name}.json"
            scenarios.save_config(_reduced(name, rounds=MC_ROUNDS, rng_seed=rng.randrange(2**31)), path)
            cfg = scenarios.load_config(path)
            out = workdir / "out"
            argv = ("run", str(path), "--mode", "both", "--out", str(out), "--format", "json")
            ops.append(Op(cfg, 1, argv=argv, out_dir=out))
        return ops

    def _outputs(self, op: Op) -> list[Path]:
        if op.out_dir is None or not op.out_dir.is_dir():
            return []
        return sorted(op.out_dir.glob(f"{op.cfg.name}_*"))

    def prepare(self, op: Op) -> None:
        for path in self._outputs(op):
            path.unlink()

    def run(self, op: Op):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(op.argv))

    def bytes_written(self, op: Op) -> tuple[int, int]:
        """(all output bytes, spectrum CSV bytes) of the op's last run."""
        paths = self._outputs(op)
        spectra = [p for p in paths if p.suffix == ".csv"]
        return sum(p.stat().st_size for p in paths), sum(p.stat().st_size for p in spectra)

    def check(self, op: Op, code) -> list[str]:
        if code != cli.EXIT_OK:
            return [f"{op.cfg.name}: exit code {code}"]
        name = op.cfg.name
        try:
            summary = json.loads((op.out_dir / f"{name}_summary.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"{name}: summary does not parse: {exc}"]
        problems = [] if summary["reference_ok"] else [f"{name}: reference check failed"]
        spectra = {}
        for path in self._outputs(op):
            if path.suffix != ".csv":
                continue
            key = path.stem[len(name) + 1:]
            try:
                spec = timeseries.spectrum_from_csv(path.read_text())
            except (OSError, ValueError) as exc:
                problems.append(f"{path.name}: does not parse: {exc}")
                continue
            if (spec.psd.size != op.cfg.acquisition.samples_per_round // 2 + 1
                    or not np.isfinite(spec.psd).all() or not np.isfinite(spec.stderr).all()):
                problems.append(f"{path.name}: wrong size or not finite")
            spectra[key] = spec
        expected_spectra = 2 + 2 * len(op.cfg.hd.thetas_rad)
        if len(spectra) != expected_spectra:
            problems.append(f"{name}: {len(spectra)} spectra written, expected {expected_spectra}")
        width = op.cfg.acquisition.band_width_mhz
        for row in summary["rows"]:
            if not _finite(row["analytic_db"], row["mc_db"]):
                problems.append(f"{name} {row['quantity']}: value not finite")
                continue
            tag = f"theta{round(math.degrees(row['theta_rad'])):g}"
            spec = spectra.get(f"pump{row['pump_mw']:g}mW_{tag}_corrected")
            if spec is None:
                problems.append(f"{name} {row['quantity']}: corrected spectrum missing")
                continue
            band = timeseries.band_power(spec, row["analysis_mhz"], width)
            if abs(10.0 * math.log10(band) - row["mc_db"]) > ANCHOR_TOL_DB:
                problems.append(f"{name} {row['quantity']}: spectrum CSV band power != summary mc_db")
            stderr = timeseries.band_power_stderr(spec, row["analysis_mhz"], width)
            problems += self._z_problem(f"{name} {row['quantity']}", row["mc_db"], row["analytic_db"],
                                        stderr, op.cfg)
        return problems

    def signature(self, op: Op, code):
        return code, tuple((p.name, _file_sha256(p)) for p in self._outputs(op))

    def expected_calls(self, op: Op) -> Counter:
        calls = scenario_calls(op.cfg, "both")
        calls.update({"cli.main": 1, "scenarios.load_config": 1,
                      "timeseries.spectrum_to_csv": calls["timeseries.simulate_spectrum"]
                      + calls["timeseries.calibrate"]})
        return calls


WORKLOADS = {w.name: w for w in (McSweep(), AnalyticGrid(), RunExport())}
