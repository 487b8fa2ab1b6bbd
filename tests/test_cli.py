import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import per_cell_rows
from sqztune import cli
from sqztune.cli import main
from sqztune.scenarios import (
    BUILTIN_SCENARIOS,
    get_scenario,
    load_config,
    run_scenario,
    save_config,
    scenario_to_dict,
)
from sqztune.timeseries import spectrum_from_csv


class TestList:
    def test_lists_builtins(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig4a", "fig4b", "fig5a", "fig5b", "fig5c"):
            assert name in out

    def test_export_writes_configs(self, tmp_path, capsys):
        assert main(["list", "--export", str(tmp_path)]) == 0
        exported = sorted(p.name for p in tmp_path.glob("*.json"))
        assert exported == ["fig4a.json", "fig4b.json", "fig5a.json", "fig5b.json", "fig5c.json"]
        data = json.loads((tmp_path / "fig4a.json").read_text())
        assert data["chain"][0]["kind"] == "opo"

    def test_exported_configs_round_trip_byte_identical(self, tmp_path, capsys):
        assert main(["list", "--export", str(tmp_path)]) == 0
        for name, builtin in BUILTIN_SCENARIOS.items():
            cfg = load_config(tmp_path / f"{name}.json")
            assert cfg == builtin
            save_config(cfg, tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == (tmp_path / f"{name}.json").read_bytes()


class TestRun:
    def test_analytic_run_passes(self, tmp_path, capsys):
        code = main(["run", "fig4a", "--mode", "analytic", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "squeezing_db@450mW" in out
        summary = (tmp_path / "fig4a_summary.csv").read_text()
        assert summary.splitlines()[0] == "scenario,quantity,model_db,reference_db,tolerance_db,pass"

    def test_json_summary(self, tmp_path, capsys):
        code = main(["run", "fig4a", "--mode", "analytic", "--out", str(tmp_path), "--format", "json"])
        assert code == 0
        data = json.loads((tmp_path / "fig4a_summary.json").read_text())
        assert data["scenario"] == "fig4a"
        assert data["reference_ok"] is True
        assert list(data["rows"][0]) == ["quantity", "pump_mw", "theta_rad", "analysis_mhz",
                                         "analytic_db", "mc_db", "reference_db", "tolerance_db",
                                         "passed"]

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["run", "fig9z"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command, kind):
        config = tmp_path / "config.json"
        if kind == "directory":
            config.mkdir()
        else:
            config.write_bytes(json.dumps(scenario_to_dict(get_scenario("fig4a"))).encode("utf-16"))
        extra = ["--param", "pump_mw", "--values", "450"] if command == "sweep" else []
        assert main([command, str(config), "--mode", "analytic", *extra]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: config file {config} cannot be read" in err
        assert "Traceback" not in err

    def test_config_file_run(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        save_config(get_scenario("fig4a"), path)
        assert main(["run", str(path), "--mode", "analytic"]) == 0

    def test_failing_reference_exits_1(self, tmp_path, capsys):
        # halving the coupling drags the squeezing far from the reference window
        data = scenario_to_dict(get_scenario("fig4a"))
        data["chain"][1]["efficiency"] = 0.4
        path = tmp_path / "detuned.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--mode", "analytic"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "field, value",
        [("electronic_floor", float("nan")), ("interference_tones", [[1.0, float("inf")]])],
    )
    def test_non_finite_noise_input_exits_2(self, tmp_path, capsys, field, value):
        data = scenario_to_dict(get_scenario("fig4a"))
        data[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "builtin, path, value",
        [
            ("fig4a", ("chain", 1, "efficiency"), 1.5),
            ("fig5b", ("chain", 2, "visibility"), float("nan")),
            ("fig4a", ("chain", -1, "thetas_rad"), [float("nan")]),
            ("fig4a", ("chain", -1, "thetas_rad"), ["a"]),
            ("fig4a", ("chain", -1, "thetas_rad"), [1e308]),
            ("fig4a", ("chain", -1, "delta_theta_rad"), float("nan")),
            ("fig4a", ("chain", 0, "threshold_mw"), float("nan")),
            ("fig5b", ("chain", 2, "phi_rad"), float("inf")),
        ],
        ids=["loss-efficiency-1.5", "abi-visibility-nan", "theta-nan", "theta-str",
             "theta-inf-degrees", "delta-theta-nan", "opo-threshold-nan", "abi-phase-inf"],
    )
    def test_invalid_chain_spec_exits_2(self, tmp_path, capsys, builtin, path, value):
        data = scenario_to_dict(get_scenario(builtin))
        *keys, last = path
        target = data
        for key in keys:
            target = target[key]
        target[last] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "analytic"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "builtin, changes, message",
        [
            ("fig4a", {("electronic_flor",): 5.0},
             "unknown key 'electronic_flor' in the config's top level"),
            ("fig4a", {("acquisition", "round"): 5}, "unknown key 'round' in acquisition"),
            ("fig5b", {("chain", 2, "shift"): 80.0}, "unknown key 'shift' in chain element 2 (abi)"),
            ("fig5b", {("chain", 2, "shift_mhz"): 1e308}, "abi shift_mhz"),
            ("fig5b", {("chain", 2, "shift_mhz"): -1e308}, "abi shift_mhz"),
            ("fig5a", {("chain", 2, "shift_mhz"): 1e308}, "abi shift_mhz"),
            ("fig5a", {("chain", 2, "shift_mhz"): -1e308}, "abi shift_mhz"),
            ("fig5b", {("chain", 3): {"kind": "aom", "t": 0.8, "r": 0.6, "shift_mhz": 1e308}},
             "aom shift_mhz"),
            ("fig5a", {("chain", 2, "shift_mhz"): 1e200}, "MAX_DETUNING_MHZ"),
            ("fig4a", {("chain", 0, "bandwidth_mhz"): 1e-308}, "opo bandwidth_mhz"),
            ("fig4a", {("chain", 0, "bandwidth_mhz"): 1e-300}, "opo bandwidth_mhz"),
            ("fig4a", {("chain", 0, "bandwidth_mhz"): 5e-324}, "opo bandwidth_mhz"),
            ("fig4a", {("acquisition", "sample_rate_msps"): 1e300,
                       ("chain", -1, "analysis_mhz"): [1e299]}, "acquisition sample_rate_msps"),
        ],
        ids=["unknown-top-level-key", "unknown-acquisition-key", "unknown-chain-key",
             "abi-shift-1e308", "abi-shift-minus-1e308", "beat-shift-1e308",
             "beat-shift-minus-1e308", "aom-shift-1e308", "beat-shift-1e200",
             "bandwidth-1e-308", "bandwidth-1e-300", "bandwidth-5e-324", "sample-rate-1e300"],
    )
    def test_config_beyond_the_model_exits_2(self, tmp_path, capsys, builtin, changes, message):
        # Under the suite's warnings-as-errors, an overflow RuntimeWarning fails it too.
        data = scenario_to_dict(get_scenario(builtin))
        for (*keys, last), value in changes.items():
            target = data
            for key in keys:
                target = target[key]
            target[last] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "analytic"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("builtin, shift", [("fig4a", None), ("fig5a", 1_400_000.0)])
    def test_lorentzian_limits_run_cleanly(self, tmp_path, capsys, builtin, shift):
        # The narrowest source read as far from its carrier as the bounds allow:
        # the Nyquist frequency of the fastest sampling, or a carrier-LO beat
        # 1e6 MHz from the source carrier.
        data = scenario_to_dict(get_scenario(builtin))
        data["chain"][0]["bandwidth_mhz"] = 1e-6
        data["acquisition"].update(sample_rate_msps=1e6, samples_per_round=1024, rounds=4,
                                   band_width_mhz=2000.0)
        data["chain"][-1]["analysis_mhz"] = [400_000.0]
        if shift is not None:
            data["chain"][2]["shift_mhz"] = shift
            data["interference_tones"] = []
        config = tmp_path / "limits.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "both"]) in (0, 1)
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "second_shift, lo_offset", [(-80.0, 0.0), (80.0, 160.0)], ids=["up-down", "up-up"]
    )
    def test_cascaded_tuners_exit_2(self, tmp_path, capsys, second_shift, lo_offset):
        data = scenario_to_dict(get_scenario("fig5b"))
        tuner = dict(data["chain"][2], shift_mhz=second_shift)
        data["chain"].insert(-1, tuner)
        data["chain"][-1]["lo_offset_mhz"] = lo_offset
        config = tmp_path / "cascade.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "analytic"]) == 2
        err = capsys.readouterr().err
        assert "cascaded tuners" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value",
        [("rounds", 2.5), ("rng_seed", 1.5), ("samples_per_round", 4096.0),
         ("band_width_mhz", float("nan")), ("rounds", True), ("sample_rate_msps", float("nan"))],
        ids=["rounds-2.5", "seed-1.5", "samples-float", "band-width-nan", "rounds-true",
             "sample-rate-nan"],
    )
    def test_invalid_acquisition_exits_2(self, tmp_path, capsys, field, value):
        data = scenario_to_dict(get_scenario("fig4a"))
        data["acquisition"][field] = value
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "montecarlo"]) == 2
        err = capsys.readouterr().err
        assert f"acquisition {field} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "field, value", [("samples_per_round", 2**40), ("rounds", 10**12)],
        ids=["samples-2^40", "rounds-1e12"],
    )
    def test_oversized_acquisition_exits_2_unallocated(self, tmp_path, capsys, field, value):
        data = scenario_to_dict(get_scenario("fig4a"))
        data["acquisition"][field] = value
        config = tmp_path / "huge.json"
        config.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            code = main(["run", str(config), "--mode", "both"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert f"acquisition {field}" in err
        assert "Traceback" not in err
        assert peak < 2**20

    @pytest.mark.parametrize("via", ["seed-option", "config-file"])
    def test_seed_beyond_the_philox_key_exits_2(self, tmp_path, capsys, via):
        argv = ["run", "fig4a", "--mode", "analytic", "--seed", str(2**128)]
        if via == "config-file":
            data = scenario_to_dict(get_scenario("fig4a"))
            data["acquisition"]["rng_seed"] = 2**128
            config = tmp_path / "seed.json"
            config.write_text(json.dumps(data))
            argv = ["run", str(config), "--mode", "analytic"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "acquisition rng_seed must be in [0, 2**128)" in err
        assert "Traceback" not in err

    def test_analysis_band_reaching_0_mhz_exits_2(self, tmp_path, capsys):
        # 0.03 +- 0.05 MHz would average the DC bin into the Monte-Carlo band
        data = scenario_to_dict(get_scenario("fig4a"))
        data["chain"][-1]["analysis_mhz"] = [0.03]
        config = tmp_path / "dc.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "both"]) == 2
        err = capsys.readouterr().err
        assert "analysis band at 0.03 MHz reaches 0 MHz" in err
        assert "Traceback" not in err

    def test_acquisition_band_center_sets_no_band(self, tmp_path, capsys):
        # beyond the 25 MHz Nyquist frequency, but the analysis band is 1.55 MHz
        data = scenario_to_dict(get_scenario("fig4a"))
        data["acquisition"]["band_center_mhz"] = 30.0
        config = tmp_path / "center.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "analytic"]) == 0

    def test_lo_phase_plus_lock_offset_beyond_the_floats_exits_2(self, tmp_path, capsys):
        # Each is finite, but the readout's phase theta + delta_theta_rad is inf.
        data = scenario_to_dict(get_scenario("fig4a"))
        data["chain"][-1].update(thetas_rad=[3e306], delta_theta_rad=1.7976931348623157e308)
        config = tmp_path / "phase.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "analytic"]) == 2
        err = capsys.readouterr().err
        assert "hd thetas_rad 3e+306 plus delta_theta_rad 1.7976931348623157e+308" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("power, code", [(1e160, 2), (1e6, 0)])
    def test_tone_power_is_bounded_as_the_floor_is(self, tmp_path, capsys, power, code):
        # At 1e160 the sums of squared periodograms overflow to nan stderr cells.
        data = scenario_to_dict(get_scenario("fig5a"))
        data["acquisition"].update(samples_per_round=4000, rounds=32)
        data["interference_tones"] = [[80.0, power]]
        config = tmp_path / "tone.json"
        config.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert main(["run", str(config), "--mode", "both", "--out", str(out_dir)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "interference tone power must be a finite number in [0, 1e+06]" in err
            assert not out_dir.exists()
        else:
            assert len(list(out_dir.iterdir())) == 7

    @pytest.mark.parametrize(
        "elements, modes",
        [
            ([{"kind": "aom", "t": 0.8, "r": 0.6, "shift_mhz": 3.1}], ["analytic", "montecarlo"]),
            ([{"kind": "abi", "shift_mhz": 3.1}], ["analytic", "both", "montecarlo"]),
            ([{"kind": "aom", "t": 0.8, "r": 0.6, "shift_mhz": 10.0}] * 2, ["analytic", "montecarlo"]),
        ],
        ids=["aom-3.1", "abi-3.1", "two-aoms-10"],
    )
    def test_overlapping_mode_pairs_exit_2(self, tmp_path, capsys, elements, modes):
        # 3.1 MHz is twice fig4a's 1.55 MHz source detuning.
        data = scenario_to_dict(get_scenario("fig4a"))
        data["chain"][-1:-1] = elements
        data["acquisition"]["samples_per_round"] = 1024
        config = tmp_path / "overlap.json"
        config.write_text(json.dumps(data))
        for mode in modes:
            assert main(["run", str(config), "--mode", mode]) == 2
            err = capsys.readouterr().err
            assert f"chain element {len(elements) + 1} ({elements[-1]['kind']}" in err
            assert "overlap" in err
            assert "Traceback" not in err

    def test_montecarlo_run_rejects_overlapping_tuner_pairs(self, tmp_path, capsys):
        # A 3.1 MHz tuner with the LO at the shift pairs fig5b's source
        # sidebands -1.55 and +1.55 with each other: a Monte-Carlo-only run
        # propagates the chain response too, so it exits 2 like an analytic
        # run, before any reference check.
        data = scenario_to_dict(get_scenario("fig5b"))
        data["chain"][2]["shift_mhz"] = 3.1
        data["chain"][-1]["lo_offset_mhz"] = 3.1
        data["acquisition"].update(samples_per_round=4096, rounds=16)
        config = tmp_path / "overlap.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "montecarlo"]) == 2
        captured = capsys.readouterr()
        assert "chain element 2 (abi, shift 3.1 MHz)" in captured.err and "overlap" in captured.err
        assert "Traceback" not in captured.err
        assert "FAIL" not in captured.out

    @pytest.mark.parametrize(
        "name", ["sub/fig4a", "../escape", "..", ".", "a\\b", "nul\0name"],
        ids=["subdirectory", "parent-escape", "dot-dot", "dot", "backslash", "nul"],
    )
    def test_name_that_is_not_a_plain_file_name_exits_2(self, tmp_path, capsys, name):
        data = scenario_to_dict(get_scenario("fig4a"))
        data["name"] = name
        config = tmp_path / "named.json"
        config.write_text(json.dumps(data))
        out_dir = tmp_path / "work" / "out"
        out_dir.mkdir(parents=True)
        assert main(["run", str(config), "--mode", "analytic", "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "scenario name" in err
        assert "Traceback" not in err
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
            config.relative_to(tmp_path), out_dir.parent.relative_to(tmp_path),
            out_dir.relative_to(tmp_path),
        ]

    @pytest.mark.parametrize(
        "changes",
        [{"pump_sweep_mw": ["450"]}, {"pump_sweep_mw": [True]},
         {"pump_sweep_mw": [1.0, 450.0], "mc_pump_mw": [True]},
         {"interference_tones": [[-3.0, 1.0]]}, {"electronic_floor": 1e308}],
        ids=["pump-str", "pump-bool", "mc-pump-bool", "tone-negative", "floor-huge"],
    )
    def test_invalid_top_level_field_exits_2(self, tmp_path, capsys, changes):
        data = scenario_to_dict(get_scenario("fig4a"))
        data.update(changes)
        data["acquisition"].update(samples_per_round=1024, rounds=16)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "both"]) == 2
        captured = capsys.readouterr()
        assert "configuration error" in captured.err
        assert "Traceback" not in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize(
        "builtin, path, value, named",
        [
            ("fig4a", ("pump_sweep_mw",), [450, 450], "450 and 450"),
            ("fig4b", ("pump_sweep_mw",), [90.0, 270.0, 90.0000001], "90.0 and 90.0000001"),
            ("fig4a", ("chain", -1, "thetas_rad"), [0.0, 0.004], "0.0 and 0.004"),
            ("fig4a", ("chain", -1, "thetas_rad"), [0.0, 0.0], "0.0 and 0.0"),
            ("fig4a", ("chain", -1, "thetas_rad"), [0.0, math.pi], f"0.0 and {math.pi!r}"),
            ("fig4a", ("chain", -1, "analysis_mhz"), [1.55, 1.55], "1.55 and 1.55"),
            ("fig5a", ("chain", -1, "analysis_mhz"), [78.45, 81.55, 78.4500001], "78.45 and 78.4500001"),
        ],
        ids=["pump-twice", "pump-same-label", "theta-same-degree", "theta-twice", "theta-mod-pi",
             "analysis-twice", "analysis-same-label"],
    )
    def test_colliding_output_labels_exit_2(self, tmp_path, capsys, builtin, path, value, named):
        data = scenario_to_dict(get_scenario(builtin))
        data["acquisition"].update(samples_per_round=4096, rounds=16, band_width_mhz=0.4)
        *keys, last = path
        target = data
        for key in keys:
            target = target[key]
        target[last] = value
        config = tmp_path / "collide.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "both", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "share the output label" in err and named in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_beat_rows_carry_the_pump(self, tmp_path, capsys):
        # Only the 450 mW beat rows have reference values; the 90 mW rows
        # used to share their names and fail the check.
        data = scenario_to_dict(get_scenario("fig5a"))
        data["pump_sweep_mw"] = [450, 90]
        config = tmp_path / "fig5a.json"
        config.write_text(json.dumps(data))
        assert main(["run", str(config), "--mode", "analytic", "--format", "json",
                     "--out", str(tmp_path / "out")]) == 0
        rows = json.loads((tmp_path / "out" / "fig5a_summary.json").read_text())["rows"]
        names = [row["quantity"] for row in rows]
        assert len(set(names)) == len(names) == 8
        checked = [row for row in rows if row["passed"] is not None]
        assert {row["quantity"] for row in checked} == {
            "beat_db@450mW@81.55MHz@theta90", "beat_db@450mW@78.45MHz@theta90"
        }
        assert all(row["passed"] and row["pump_mw"] == 450 for row in checked)

    @pytest.mark.parametrize("builtin, mc_pumps", [("fig4b", [270.0]), ("fig4a", [])])
    def test_montecarlo_summary_leaves_rows_without_value_empty(
        self, tmp_path, capsys, builtin, mc_pumps
    ):
        data = scenario_to_dict(get_scenario(builtin))
        data["acquisition"].update(samples_per_round=1024, rounds=16)
        data["mc_pump_mw"] = mc_pumps
        config = tmp_path / "mc.json"
        config.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert main(["run", str(config), "--mode", "montecarlo", "--out", str(out_dir)]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        with (out_dir / f"{builtin}_summary.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            pump = float(row["quantity"].split("@")[1].removesuffix("mW"))
            assert (row["model_db"] != "") == (pump in mc_pumps), row

    def test_too_few_rounds_exits_2_without_traceback(self, tmp_path, capsys):
        data = scenario_to_dict(get_scenario("fig4a"))
        data["acquisition"]["rounds"] = 3
        path = tmp_path / "short.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path), "--mode", "both"]) == 2
        err = capsys.readouterr().err
        assert "3 rounds" in err
        assert "Traceback" not in err

    def test_montecarlo_run_writes_spectra(self, tmp_path, capsys):
        data = scenario_to_dict(get_scenario("fig4a"))
        data["acquisition"]["samples_per_round"] = 4096
        data["acquisition"]["rounds"] = 30
        data["acquisition"]["band_width_mhz"] = 0.4
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert main(["run", str(path), "--mode", "both", "--seed", "9", "--out", str(out_dir)]) == 0
        spectrum_path = out_dir / "fig4a_pump450mW_theta0_corrected.csv"
        spectrum = spectrum_from_csv(spectrum_path.read_text())
        assert spectrum.freqs_mhz.size == 4096 // 2 + 1

    def test_out_writes_each_spectrum_once_bit_exact(self, tmp_path, capsys):
        # fig5a's beat does not depend on the LO phase, so its theta0 and
        # theta90 spectra are equal bit for bit; each is written to its own file.
        data = scenario_to_dict(get_scenario("fig5a"))
        data["acquisition"].update(samples_per_round=4096, rounds=16, band_width_mhz=0.4)
        config = tmp_path / "fig5a.json"
        config.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert main(["run", str(config), "--mode", "both", "--seed", "3", "--out", str(out_dir)]) in (0, 1)
        result = run_scenario(load_config(config), mode="both", seed=3)
        raw = [result.spectra[f"pump450mW_{tag}_raw"] for tag in ("theta0", "theta90")]
        assert np.array_equal(raw[0].psd, raw[1].psd)
        written = {p.name for p in out_dir.iterdir()} - {"fig5a_summary.csv"}
        assert written == {f"fig5a_{key}.csv" for key in result.spectra}
        assert len(written) == 6
        for key, spectrum in result.spectra.items():
            parsed = spectrum_from_csv((out_dir / f"fig5a_{key}.csv").read_text())
            assert np.array_equal(parsed.freqs_mhz, spectrum.freqs_mhz)
            assert np.array_equal(parsed.psd, spectrum.psd)
            assert np.array_equal(parsed.stderr, spectrum.stderr)

    @pytest.mark.parametrize("builtin", ["fig4a", "fig5a"])
    def test_out_spectra_are_repr_text_on_the_full_grid(self, tmp_path, capsys, builtin):
        # 25,001 bins: four formatting blocks, the last a partial one.
        data = scenario_to_dict(get_scenario(builtin))
        data["acquisition"]["rounds"] = 16
        config = tmp_path / f"{builtin}.json"
        config.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert main(["run", str(config), "--mode", "both", "--out", str(out_dir)]) in (0, 1)
        result = run_scenario(load_config(config), mode="both")
        written = {p.name for p in out_dir.iterdir()} - {f"{builtin}_summary.csv"}
        assert written == {f"{builtin}_{key}.csv" for key in result.spectra}
        for key, spectrum in result.spectra.items():
            assert spectrum.freqs_mhz.size == 25_001
            expected = "\n".join(["freq_mhz,psd_linear,stderr", *per_cell_rows(spectrum)]) + "\n"
            assert (out_dir / f"{builtin}_{key}.csv").read_bytes() == expected.encode()

    @pytest.mark.parametrize("builtin", ["fig4a", "fig4b", "fig5a", "fig5b", "fig5c"])
    def test_every_written_number_is_finite(self, tmp_path, capsys, builtin):
        data = scenario_to_dict(get_scenario(builtin))
        data["acquisition"].update(samples_per_round=4000, rounds=16)
        config = tmp_path / f"{builtin}.json"
        config.write_text(json.dumps(data))
        for fmt in ("csv", "json"):
            out_dir = tmp_path / fmt
            argv = ["run", str(config), "--mode", "both", "--format", fmt, "--out", str(out_dir)]
            assert main(argv) in (0, 1)
            summary = out_dir / f"{builtin}_summary.{fmt}"
            if fmt == "json":
                rows = json.loads(summary.read_text())["rows"]
                values = [row[key] for row in rows for key in row if key not in ("quantity", "passed")]
                assert all(row["analytic_db"] is not None for row in rows)
            else:
                with open(summary, newline="") as fh:
                    rows = list(csv.DictReader(fh))
                values = [float(row[key]) for row in rows
                          for key in ("model_db", "reference_db", "tolerance_db") if row[key]]
                assert all(row["model_db"] for row in rows)
            assert rows and all(math.isfinite(v) for v in values if v is not None)
            spectra = [path for path in out_dir.glob("*.csv") if path != summary]
            assert len(spectra) >= 4
            for path in spectra:
                cells = np.loadtxt(path, delimiter=",", skiprows=1)
                assert cells.shape == (2001, 3) and np.isfinite(cells).all()

    @pytest.mark.parametrize(
        "argv, message",
        [(["run", "{config}", "--mode", "both"],
          "200 Monte-Carlo points x 2 LO phases over 25001 bins hold 20050802 spectrum values"),
         (["sweep", "{config}", "--param", "pump_mw", "--values",
           ",".join(str(p) for p in range(1, 501)), "--mode", "both"],
          "500 Monte-Carlo points x 2 LO phases over 8388 bins hold 16792776 spectrum values")],
        ids=["run", "sweep"],
    )
    def test_run_over_the_draw_bound_exits_2_undrawn(self, tmp_path, capsys, argv, message):
        # run: 200 pumps on fig4a's whole 25,001-bin grid; sweep: 500 values
        # on the band's bins of the largest grid.  Each stream stays within
        # its own bound.
        data = scenario_to_dict(get_scenario("fig4a"))
        data["pump_sweep_mw"] = [float(p) for p in range(1, 201)]
        if argv[0] == "sweep":
            data["acquisition"].update(samples_per_round=2**22, rounds=64)
        config = tmp_path / "pumps.json"
        config.write_text(json.dumps(data))
        tracemalloc.start()
        try:
            code = main([arg.format(config=config) for arg in argv])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "MAX_SPECTRUM_VALUES" in err and "Traceback" not in err
        assert peak < 2**20


class TestSweep:
    def test_pump_sweep_csv(self, capsys):
        code = main(["sweep", "fig4b", "--param", "pump_mw", "--values", "90,270,450", "--mode", "analytic"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "parameter,value,squeezed_db,antisqueezed_db"
        assert len(lines) == 4

    def test_failing_bin_in_band_exits_2(self, tmp_path, capsys):
        # At 2 rounds and seed 0 one bin of this 1.55 +- 0.2 MHz band has its
        # shot-noise estimate under the electronic one.
        data = scenario_to_dict(get_scenario("fig4a"))
        data["acquisition"].update(samples_per_round=4096, rounds=2, band_width_mhz=0.4)
        config = tmp_path / "short.json"
        config.write_text(json.dumps(data))
        argv = ["sweep", str(config), "--param", "pump_mw", "--values", "450", "--mode", "both"]
        assert main(argv + ["--seed", "0"]) == 2
        err = capsys.readouterr().err
        assert "in 1 bins" in err and "at 2 rounds; raise acquisition.rounds" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "param, value, message",
        [
            ("pump_mw", "ten,20", "--values must be a comma-separated number list, got 'ten,20'"),
            ("pump_mw", "nan", "scenario pump_sweep_mw must be a finite number in [0, inf], got nan"),
            ("pump_mw", "inf", "scenario pump_sweep_mw must be a finite number in [0, inf], got inf"),
            ("pump_mw", "-1", "scenario pump_sweep_mw must be a finite number in [0, inf], got -1.0"),
            ("pump_mw", "980", "pump 980.0 mW is at or above threshold 980.0 mW"),
            ("hd_efficiency", "1.5", "hd efficiency must be a finite number in [0, 1], got 1.5"),
            ("hd_efficiency", "-0.1", "hd efficiency must be a finite number in [0, 1], got -0.1"),
            ("hd_efficiency", "nan", "hd efficiency must be a finite number in [0, 1], got nan"),
            ("delta_theta_rad", "inf", "hd delta_theta_rad must be a finite number, got inf"),
            ("delta_theta_rad", "nan", "hd delta_theta_rad must be a finite number, got nan"),
        ],
    )
    def test_bad_values_exit_2(self, capsys, param, value, message):
        assert main(["sweep", "fig4b", "--param", param, "--values", value]) == 2
        captured = capsys.readouterr()
        assert f"configuration error: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("values", ["-0.1,0,0.1047", "-.1,0,0.1047", "-1e-1,0.0,0.1047"])
    def test_list_starting_negative_is_a_separate_argument(self, capsys, values):
        argv = ["sweep", "fig4b", "--param", "delta_theta_rad", "--mode", "analytic"]
        assert main(argv + [f"--values={values}"]) == 0
        attached = capsys.readouterr().out
        assert main(argv + ["--values", values]) == 0
        assert capsys.readouterr().out == attached
        rows = list(csv.reader(attached.splitlines()))[1:]
        assert [row[1] for row in rows] == ["-0.1", "0.0", "0.1047"]

    def test_list_starting_negative_infinity_exits_2(self, capsys):
        argv = ["sweep", "fig4b", "--param", "delta_theta_rad", "--values", "-inf,0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error: hd delta_theta_rad must be a finite number, got -inf" in err

    @pytest.mark.parametrize("follower", ["--mode", "-h"])
    def test_values_still_needs_its_argument(self, capsys, follower):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "fig4b", "--param", "pump_mw", "--values", follower, "analytic"])
        assert exc.value.code == 2
        assert "argument --values: expected one argument" in capsys.readouterr().err

    def test_bad_param_exit_2(self, capsys):
        assert main(["sweep", "fig4b", "--param", "lo_power", "--values", "1"]) == 2

    def test_sweep_writes_file(self, tmp_path, capsys):
        code = main(
            [
                "sweep", "fig4b", "--param", "delta_theta_rad", "--values", "0,0.1",
                "--mode", "analytic", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "fig4b_sweep_delta_theta_rad.csv").exists()


class TestReference:
    def test_csv_to_stdout(self, capsys):
        assert main(["reference"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "scenario,quantity,paper_value_db,tolerance_db,provenance"
        assert "fig5b" in out

    def test_json_file(self, tmp_path, capsys):
        assert main(["reference", "--out", str(tmp_path), "--format", "json"]) == 0
        data = json.loads((tmp_path / "reference.json").read_text())
        assert {entry["scenario"] for entry in data} == {"fig4a", "fig4b", "fig5a", "fig5b", "fig5c"}

    def test_csv_and_json_list_entries_in_one_order(self, tmp_path, capsys):
        assert main(["reference", "--out", str(tmp_path)]) == 0
        assert main(["reference", "--out", str(tmp_path), "--format", "json"]) == 0
        with open(tmp_path / "reference.csv", newline="") as fh:
            from_csv = [(row["scenario"], row["quantity"]) for row in csv.DictReader(fh)]
        data = json.loads((tmp_path / "reference.json").read_text())
        from_json = [(entry["scenario"], entry["quantity"]) for entry in data]
        assert from_json == from_csv == sorted(from_csv)


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "fig4a", "--mode", "analytic", "--out"],
        ["sweep", "fig4b", "--param", "pump_mw", "--values", "450", "--mode", "analytic", "--out"],
        ["list", "--export"],
        ["reference", "--out"],
    ],
    ids=["run", "sweep", "list", "reference"],
)
def test_output_path_that_is_a_file_exits_2(tmp_path, capsys, argv):
    target = tmp_path / "taken"
    target.write_text("")
    assert main([*argv, str(target)]) == 2
    err = capsys.readouterr().err
    assert f"cannot use {str(target)!r} as an output directory" in err
    assert "Traceback" not in err


def _fast_fig4a(tmp_path):
    data = scenario_to_dict(get_scenario("fig4a"))
    data["acquisition"].update(samples_per_round=4096, rounds=16, band_width_mhz=0.4)
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "argv, taken",
    [
        (["run", "fig4a", "--mode", "analytic", "--out"], "fig4a_summary.csv"),
        (["run", "FAST", "--mode", "montecarlo", "--out"], "fig4a_snl.csv"),
        (["sweep", "fig4b", "--param", "pump_mw", "--values", "450", "--mode", "analytic", "--out"],
         "fig4b_sweep_pump_mw.csv"),
        (["list", "--export"], "fig4a.json"),
        (["reference", "--out"], "reference.csv"),
    ],
    ids=["run-summary", "run-spectrum", "sweep", "list", "reference"],
)
def test_write_error_inside_output_dir_exits_2(tmp_path, capsys, argv, taken):
    # A directory where an output file goes makes the write fail.
    out_dir = tmp_path / "out"
    (out_dir / taken).mkdir(parents=True)
    argv = [_fast_fig4a(tmp_path) if arg == "FAST" else arg for arg in argv]
    assert main([*argv, str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write output into {str(out_dir)!r}" in err
    assert str(out_dir / taken) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, work",
    [
        (["run", "fig4a", "--mode", "both", "--out"], "run_scenario"),
        (["sweep", "fig4b", "--param", "pump_mw", "--values", "450", "--out"], "sweep"),
    ],
    ids=["run", "sweep"],
)
def test_unusable_output_path_exits_2_before_the_work(tmp_path, capsys, monkeypatch, argv, work):
    def no_work(*args, **kwargs):
        raise AssertionError("the output path is checked before the work")

    monkeypatch.setattr(cli, work, no_work)
    target = tmp_path / "taken"
    target.write_text("")
    assert main([*argv, str(target)]) == 2
    assert f"cannot use {str(target)!r} as an output directory" in capsys.readouterr().err


def test_python_m_sqztune_runs_the_cli():
    root = Path(__file__).resolve().parent.parent
    paths = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "sqztune", "list"], cwd=root, capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == [
        "fig4a", "fig4b", "fig5a", "fig5b", "fig5c"
    ]
