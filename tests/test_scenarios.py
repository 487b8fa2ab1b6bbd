import math
import re
import weakref
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import apply_chain_change, chain_change, mc_target_psd
from oracles import chain_efficiency_total, covariance_response_pairs
from sqztune import scenarios, timeseries
from sqztune.gaussian_core import ModeLabel
from sqztune.homodyne import db, hd_noise_power
from sqztune.optics_components import OpoParams
from sqztune.scenarios import (
    BUILTIN_SCENARIOS,
    REFERENCE_TABLE,
    AbiSpec,
    AcquisitionParams,
    AomSpec,
    ConfigError,
    HdSpec,
    LossSpec,
    ScenarioConfig,
    SourceSpec,
    analytic_noise,
    chain_response,
    emit_reference,
    get_scenario,
    list_scenarios,
    load_config,
    parse_reference,
    propagate_chain,
    run_scenario,
    save_config,
    scenario_from_dict,
    scenario_to_dict,
    summary_csv,
    sweep,
    sweep_csv,
)
from sqztune.timeseries import band_power_stderr, band_slice

FAST_ACQ = dict(
    sample_rate_msps=50.0,
    samples_per_round=4096,
    rounds=40,
    band_center_mhz=1.55,
    band_width_mhz=0.4,
)


def fast(cfg: ScenarioConfig, **acq_changes) -> ScenarioConfig:
    changes = {**FAST_ACQ, **acq_changes}
    return replace(cfg, acquisition=replace(cfg.acquisition, **changes))


def simple_config(**overrides) -> ScenarioConfig:
    fields = dict(
        name="custom",
        description="single-point readout",
        chain=(
            SourceSpec(escape_efficiency=0.934),
            LossSpec("coupling", 0.854),
            HdSpec(
                lo_offset_mhz=0.0,
                thetas_rad=(0.0, math.pi / 2),
                analysis_mhz=(1.55,),
                delta_theta_rad=math.radians(6.0),
                efficiency=0.888,
            ),
        ),
        pump_sweep_mw=(450.0,),
        acquisition=AcquisitionParams(rng_seed=3),
        mode="analytic",
    )
    fields.update(overrides)
    return ScenarioConfig(**fields)


class TestBuiltins:
    def test_expected_names_present(self):
        names = [name for name, _ in list_scenarios()]
        assert {"fig4a", "fig4b", "fig5a", "fig5b", "fig5c"} <= set(names)

    def test_listing_is_lexicographic(self):
        names = [name for name, _ in list_scenarios()]
        assert names == sorted(names)

    def test_descriptions_non_empty(self):
        for _, description in list_scenarios():
            assert description.strip()

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            get_scenario("fig9z")

    def test_every_builtin_passes_reference_analytically(self):
        for name in sorted(BUILTIN_SCENARIOS):
            result = run_scenario(get_scenario(name), mode="analytic")
            checked = [row for row in result.rows if row.passed is not None]
            assert checked, name
            assert result.reference_ok, name

    def test_fig4a_frozen_values(self):
        result = run_scenario(get_scenario("fig4a"), mode="analytic")
        by_quantity = {row.quantity: row for row in result.rows}
        assert by_quantity["squeezing_db@450mW"].analytic_db == pytest.approx(
            -3.1793370678008817, abs=1e-9
        )
        assert by_quantity["antisqueezing_db@450mW"].analytic_db == pytest.approx(
            11.533139101868361, abs=1e-9
        )

    def test_fig4b_optimum_sits_at_270(self):
        result = run_scenario(get_scenario("fig4b"), mode="analytic")
        squeezing = {
            row.pump_mw: row.analytic_db
            for row in result.rows
            if row.quantity.startswith("squeezing")
        }
        assert min(squeezing, key=squeezing.get) == 270.0

    def test_fig5a_beat_bands_match_analytically(self):
        result = run_scenario(get_scenario("fig5a"), mode="analytic")
        values = {row.quantity: row.analytic_db for row in result.rows}
        assert values["beat_db@450mW@81.55MHz@theta90"] == pytest.approx(
            values["beat_db@450mW@78.45MHz@theta90"], abs=1e-9
        )
        assert values["beat_db@450mW@81.55MHz@theta0"] == pytest.approx(
            values["beat_db@450mW@81.55MHz@theta90"], abs=1e-9
        )

    def test_tuned_chain_efficiency_product(self):
        cfg = get_scenario("fig5b")
        assert chain_efficiency_total(cfg) == pytest.approx(0.713 * 0.91 * 0.841 * 0.888, rel=1e-12)

    @pytest.mark.parametrize(
        "name,product",
        [("fig4a", 0.934 * 0.854 * 0.888), ("fig5a", 0.713 * 0.91 * 0.841 * 0.806)],
        ids=["fig4a", "fig5a"],
    )
    def test_readout_chain_efficiency_products(self, name, product):
        # the chains behind the 70.8% and 43.9% budgets of acceptance criterion 6
        assert chain_efficiency_total(get_scenario(name)) == pytest.approx(product, rel=1e-12)


class TestValidation:
    def test_chain_must_start_with_source(self):
        with pytest.raises(ConfigError, match="source"):
            simple_config(
                chain=(
                    LossSpec("coupling", 0.9),
                    SourceSpec(),
                    HdSpec(0.0, (0.0,), (1.55,)),
                )
            )

    def test_chain_must_end_with_readout(self):
        with pytest.raises(ConfigError, match="readout"):
            simple_config(chain=(SourceSpec(), LossSpec("coupling", 0.9)))

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            simple_config(mode="quickly")

    def test_lo_must_match_carrier_or_shift(self):
        chain = (
            SourceSpec(),
            AbiSpec(shift_mhz=80.0),
            HdSpec(40.0, (0.0,), (1.55,)),
        )
        with pytest.raises(ConfigError, match="LO offset"):
            simple_config(chain=chain)

    def test_above_threshold_pump_rejected_at_run(self):
        cfg = simple_config(pump_sweep_mw=(2000.0,))
        with pytest.raises(ConfigError, match="threshold"):
            run_scenario(cfg, mode="analytic")

    def test_band_beyond_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            simple_config(
                chain=(
                    SourceSpec(),
                    HdSpec(0.0, (0.0,), (30.0,)),
                )
            )

    @pytest.mark.parametrize(
        "analysis, message",
        [(0.01, "reaches 0 MHz"), (0.05, "reaches 0 MHz"), (0.05 + 1e-10, "reaches 0 MHz"),
         (24.95 - 1e-10, "exceeds the Nyquist")],
    )
    def test_band_holding_the_dc_or_nyquist_bin_rejected(self, analysis, message):
        # 0.1 MHz bands at 50 MS/s; the last of each kind reaches the edge
        # only by band_power's rounding slack
        with pytest.raises(ConfigError, match=message):
            simple_config(chain=(SourceSpec(), HdSpec(0.0, (0.0,), (analysis,))))

    def test_empty_pumps_rejected(self):
        with pytest.raises(ConfigError, match="pump"):
            simple_config(pump_sweep_mw=())

    def test_mc_pump_outside_sweep_rejected(self):
        with pytest.raises(ConfigError, match="not in the sweep"):
            simple_config(mc_pump_mw=(90.0,))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SourceSpec(threshold_mw=float("nan")),
            lambda: SourceSpec(bandwidth_mhz=0.0),
            lambda: LossSpec("coupling", -0.1),
            lambda: AbiSpec(zeta=True),
            lambda: AbiSpec(shift_mhz=80.005),
            lambda: AomSpec(0.6, 0.6, 80.0),
            lambda: AomSpec(0.6, 0.8, 0.0),
            lambda: HdSpec(0.0, 0.0, (1.55,)),
            lambda: HdSpec(0.0, (0.0,), (1.55,), efficiency=1.2),
        ],
        ids=["opo-threshold-nan", "opo-bandwidth-0", "loss-negative", "abi-zeta-bool",
             "abi-shift-off-grid", "aom-unnormalized", "aom-zero-shift", "hd-theta-scalar",
             "hd-efficiency-1.2"],
    )
    def test_bad_element_values_rejected(self, make):
        with pytest.raises(ConfigError, match="opo|loss|abi|aom|hd"):
            make()

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("pump_sweep_mw", ("450",), "pump_sweep_mw"),
            ("pump_sweep_mw", (True,), "pump_sweep_mw"),
            ("pump_sweep_mw", (float("inf"),), "pump_sweep_mw"),
            ("pump_sweep_mw", (-90.0,), "pump_sweep_mw"),
            ("mc_pump_mw", (True,), "mc_pump_mw"),
            ("interference_tones", ((-3.0, 1.0),), "above 0"),
            ("interference_tones", ((0.0, 1.0),), "above 0"),
            ("interference_tones", ((True, 1.0),), "frequency"),
            ("electronic_floor", 1e308, "electronic_floor"),
            ("electronic_floor", True, "electronic_floor"),
            ("name", 7, "scenario name"),
            ("name", "sub/fig4a", "scenario name"),
        ],
        ids=["pump-str", "pump-bool", "pump-inf", "pump-negative", "mc-pump-bool",
             "tone-negative", "tone-zero", "tone-bool", "floor-huge", "floor-bool",
             "name-int", "name-path"],
    )
    def test_bad_top_level_values_rejected(self, field, value, match):
        with pytest.raises(ConfigError, match=match):
            simple_config(**{field: value})

    def test_floor_bound_admits_1e6(self):
        assert simple_config(electronic_floor=1e6).electronic_floor == 1e6

    def test_lorentzian_bounds_admit_their_limits(self):
        assert SourceSpec(bandwidth_mhz=1e-6).bandwidth_mhz == 1e-6
        assert AcquisitionParams(sample_rate_msps=1e6).sample_rate_msps == 1e6
        with pytest.raises(ConfigError, match="opo bandwidth_mhz"):
            SourceSpec(bandwidth_mhz=0.99e-6)
        with pytest.raises(ValueError, match="bandwidth"):
            OpoParams(450.0, bandwidth_mhz=0.99e-6)
        with pytest.raises(ValueError, match="acquisition sample_rate_msps"):
            AcquisitionParams(sample_rate_msps=1.01e6)


@pytest.fixture
def propagations(monkeypatch):
    """The config name of every pass through the chain made in the module."""
    calls = []
    response = scenarios.chain_response

    def counting(cfg):
        calls.append(cfg.name)
        return response(cfg)

    monkeypatch.setattr(scenarios, "chain_response", counting)
    return calls


class TestAnalyticReadout:
    """run_scenario builds one chain response and reduces it once per band;
    its analytic values are analytic_noise's, point for point."""

    def assert_rows_equal_per_point(self, cfg, propagations):
        rows = run_scenario(cfg, mode="analytic").rows
        assert propagations == [cfg.name]
        hd = cfg.hd
        assert len(rows) == len(cfg.pump_sweep_mw) * len(hd.thetas_rad) * len(hd.analysis_mhz)
        for row in rows:
            point = analytic_noise(cfg, row.pump_mw, row.theta_rad, row.analysis_mhz)
            assert (row.analytic_linear, row.analytic_db) == (point, db(point))

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_rows_equal_per_point_readout(self, name, propagations):
        self.assert_rows_equal_per_point(get_scenario(name), propagations)

    def test_bare_aom_chain_rows_equal_per_point_readout(self, propagations):
        cfg = get_scenario("fig4a")
        chain = cfg.chain[:2] + (AomSpec(0.8, 0.6, 10.0),) + cfg.chain[2:]
        self.assert_rows_equal_per_point(
            replace(cfg, chain=chain, pump_sweep_mw=(90.0, 450.0)), propagations
        )

    def test_phased_tuner_rows_equal_per_point_readout(self, propagations):
        cfg = get_scenario("fig5a")
        chain = cfg.chain[:2] + (replace(cfg.chain[2], phi_rad=0.6),) + cfg.chain[3:]
        self.assert_rows_equal_per_point(
            replace(cfg, chain=chain, pump_sweep_mw=(270.0, 450.0)), propagations
        )

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo", "both"])
    def test_one_propagation_per_run(self, mode, propagations):
        cfg = fast(replace(get_scenario("fig5c"), mc_pump_mw=(90.0, 450.0)))
        run_scenario(cfg, mode=mode, seed=3)
        assert propagations == ["fig5c"]

    @pytest.mark.parametrize(
        "elements",
        [(AomSpec(0.8, 0.6, 3.1),), (AbiSpec(shift_mhz=3.1),),
         (AomSpec(0.8, 0.6, 10.0), AomSpec(0.8, 0.6, 10.0))],
        ids=["aom-3.1", "abi-3.1", "two-aoms-10"],
    )
    def test_overlapping_mode_pairs_are_a_config_error(self, elements):
        # 3.1 MHz is twice the source detuning: the shift pairs -1.55 with
        # +1.55 and +1.55 with 4.65.  A second 10 MHz AOM pairs the first
        # one's outputs again.
        cfg = simple_config(chain=(SourceSpec(),) + elements + (HdSpec(0.0, (0.0,), (1.55,)),))
        position, kind = len(elements), type(elements[-1]).__name__[:3].lower()
        pattern = rf"chain element {position} \({kind}, shift .* MHz\): .*overlap"
        with pytest.raises(ConfigError, match=pattern):
            run_scenario(cfg, mode="analytic")


def random_chain_config(rng: np.random.Generator) -> ScenarioConfig:
    """A builtin readout with a random source escape, tuner (phi, V, zeta),
    optional bare AOM and pumps 0, 1e-300 and one below threshold; it may
    be rejected for overlapping mode pairs only when propagated."""
    base = get_scenario(str(rng.choice(["fig4a", "fig5a", "fig5b"])))
    mid = []
    for element in base.chain[1:-1]:
        if isinstance(element, AbiSpec):
            element = replace(element, phi_rad=rng.uniform(-np.pi, np.pi),
                              visibility=rng.uniform(0.0, 1.0), zeta=rng.uniform(0.5, 1.0))
        mid.append(element)
    if rng.uniform() < 0.6:
        angle = rng.uniform(0.0, np.pi / 2)
        # -163.1 MHz folds the tuned mode at +81.55 MHz onto its mirror
        # -81.55 MHz, which the carrier LO reads in the same band.
        aom = AomSpec(math.cos(angle), math.sin(angle), float(rng.choice([-163.1, 10.0, -20.0, 3.1])))
        mid.insert(int(rng.integers(0, len(mid) + 1)), aom)
    hd = replace(base.hd, thetas_rad=(0.0, math.pi / 2, rng.uniform(0.2, 1.3)),
                 delta_theta_rad=rng.uniform(-0.3, 0.3))
    source = SourceSpec(escape_efficiency=rng.uniform(0.3, 1.0))
    return replace(base, name="random", chain=(source, *mid, hd),
                   pump_sweep_mw=(0.0, 1e-300, rng.uniform(1.0, 979.0)), mc_pump_mw=None)


class TestChainResponse:
    """One pump-independent chain response read at the source variances
    gives the physical state's readout, on every accepted chain."""

    @staticmethod
    def assert_rows_read_the_propagated_state(cfg):
        hd = cfg.hd
        lo = ModeLabel.from_mhz(hd.lo_offset_mhz)
        states = {pump: propagate_chain(cfg, pump) for pump in cfg.pump_sweep_mw}
        rows = run_scenario(cfg, mode="analytic").rows
        assert len(rows) == len(states) * len(hd.thetas_rad) * len(hd.analysis_mhz)
        for row in rows:
            theta_eff = row.theta_rad + hd.delta_theta_rad
            expected = hd_noise_power(states[row.pump_mw], lo, row.analysis_mhz, theta_eff, hd.efficiency)
            assert row.analytic_linear == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtin_rows(self, name):
        self.assert_rows_read_the_propagated_state(get_scenario(name))

    def test_random_accepted_chains(self):
        rng = np.random.default_rng(2012)
        accepted = folded = 0
        while accepted < 200:
            cfg = random_chain_config(rng)
            try:
                chain_response(cfg)
            except ConfigError as exc:
                assert "overlap" in str(exc)
                continue
            self.assert_rows_read_the_propagated_state(cfg)
            accepted += 1
            folded += any(isinstance(e, AomSpec) and e.shift_mhz == -163.1 for e in cfg.chain)
        assert folded >= 20


def response_pairs_or_error(pairs_of, cfg):
    """The pairs ``pairs_of(cfg)`` gives, or the text of its ConfigError."""
    try:
        return pairs_of(cfg)
    except ConfigError as exc:
        return str(exc)


class TestTransferMap:
    """The transfer map's detected pairs equal the covariance walk's: the
    same gains within 1e-15 at every phase, and the same rejections."""

    PHASES = np.linspace(0.0, math.pi, 41)

    def assert_map_matches_covariance(self, cfg):
        got = response_pairs_or_error(scenarios._response_pairs, cfg)
        expected = response_pairs_or_error(covariance_response_pairs, cfg)
        if isinstance(expected, str):
            assert got == expected
            return False
        assert len(got) == len(expected) == len(cfg.hd.analysis_mhz)
        for pair, oracle in zip(got, expected):
            for theta in self.PHASES:
                gap = np.subtract(pair.gains(theta), oracle.gains(theta))
                assert np.abs(gap).max() <= 1e-15, (cfg.chain, theta, gap)
        return True

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_builtins(self, name):
        assert self.assert_map_matches_covariance(get_scenario(name))

    def test_random_chains(self):
        rng = np.random.default_rng(2026)
        accepted = rejected = 0
        while accepted < 200:
            if self.assert_map_matches_covariance(random_chain_config(rng)):
                accepted += 1
            else:
                rejected += 1
        assert rejected >= 20

    @pytest.mark.parametrize(
        "elements",
        [(AomSpec(0.8, 0.6, 3.1),), (AbiSpec(shift_mhz=3.1),),
         (AomSpec(0.8, 0.6, 10.0), AomSpec(0.8, 0.6, 10.0))],
        ids=["aom-3.1", "abi-3.1", "two-aoms-10"],
    )
    def test_overlap_message(self, elements):
        cfg = simple_config(chain=(SourceSpec(),) + elements + (HdSpec(0.0, (0.0,), (1.55,)),))
        message = response_pairs_or_error(covariance_response_pairs, cfg)
        assert "overlap" in message
        assert not self.assert_map_matches_covariance(cfg)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(BUILTIN_SCENARIOS)),
           changes=st.lists(chain_change, min_size=1, max_size=2))
    def test_changed_chains(self, name, changes):
        data = scenario_to_dict(get_scenario(name))
        for change in changes:
            apply_chain_change(data["chain"], change)
        try:
            cfg = scenario_from_dict(data)
        except ConfigError:
            assume(False)
        self.assert_map_matches_covariance(cfg)


class TestMonteCarloTarget:
    """The Monte-Carlo target spectrum reads the chain response per bin."""

    def test_beat_target_peaks_at_the_shift(self):
        cfg = get_scenario("fig5a")
        grid = cfg.acquisition.grid_mhz
        psd = mc_target_psd(cfg, math.pi / 2)
        assert grid[np.argmax(psd(grid))] == pytest.approx(80.0, abs=1e-9)
        at = dict(zip((80.0, 81.55, 78.45, 120.0), psd(np.array([80.0, 81.55, 78.45, 120.0]))))
        assert at[80.0] > at[81.55] > at[120.0]
        assert at[78.45] == pytest.approx(at[81.55], rel=1e-12)
        assert at[120.0] == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "name, phi",
        [("fig4a", 0.0), ("fig4b", 0.0), ("fig5b", 0.0), ("fig5b", 0.6), ("fig5c", 0.0),
         ("fig5c", 0.6)],
    )
    def test_matched_lo_target_equals_analytic_at_band_centre(self, name, phi):
        cfg = get_scenario(name)
        cfg = replace(cfg, chain=tuple(replace(e, phi_rad=phi) if isinstance(e, AbiSpec) else e
                                       for e in cfg.chain))
        acq = cfg.acquisition
        centre = acq.grid_mhz[round(1.55 / acq.bin_spacing_mhz)]
        for row in run_scenario(cfg, mode="analytic").rows:
            psd = mc_target_psd(cfg, row.theta_rad, row.pump_mw)(np.array([centre]))
            assert psd[0] == pytest.approx(row.analytic_linear, rel=1e-12, abs=0.0)

    def test_each_band_reads_its_own_pair(self):
        # A -163.1 MHz AOM mixes +81.55 MHz with its mirror -81.55 MHz but
        # moves 78.45 MHz to -84.65 MHz, so the two beat bands read
        # different response pairs.
        cfg = get_scenario("fig5a")
        cfg = replace(cfg, chain=cfg.chain[:-1] + (AomSpec(0.8, 0.6, -163.1), cfg.hd))
        rows = run_scenario(cfg, mode="analytic").rows
        assert len({row.analytic_linear for row in rows}) == 2
        for row in rows:
            psd = mc_target_psd(cfg, row.theta_rad)(np.array([row.analysis_mhz]))
            assert psd[0] == pytest.approx(row.analytic_linear, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "name, change",
        [
            ("fig5b", {"phi_rad": 0.6}),
            ("fig5b", {"phi_rad": math.pi / 2}),
            ("fig4a", AomSpec(0.8, 0.6, 10.0)),
            ("fig5a", {"phi_rad": 0.6, "visibility": 0.7}),
        ],
        ids=["fig5b-phi0.6", "fig5b-phi-half-pi", "fig4a-aom", "fig5a-phi0.6-V0.7"],
    )
    def test_monte_carlo_agrees_with_analytic(self, name, change):
        # The closed forms this target replaced ignored the tuner phase and
        # had no bare AOM: fig5b at phi = 0.6 read -1.8 dB for -0.4 dB.
        cfg = get_scenario(name)
        if isinstance(change, AomSpec):
            chain = cfg.chain[:-1] + (change, cfg.hd)
        else:
            chain = tuple(replace(e, **change) if isinstance(e, AbiSpec) else e for e in cfg.chain)
        cfg = replace(cfg, chain=chain,
                      acquisition=replace(cfg.acquisition, samples_per_round=8192, rounds=400))
        width = cfg.acquisition.band_width_mhz
        for seed in range(5):
            result = run_scenario(cfg, mode="both", seed=seed)
            for row in result.rows:
                key = f"pump{row.pump_mw:g}mW_{scenarios._theta_tag(row.theta_rad)}_corrected"
                stderr = band_power_stderr(result.spectra[key], row.analysis_mhz, width)
                gap = 10.0 ** (row.mc_db / 10.0) - row.analytic_linear
                assert abs(gap) <= 4.0 * stderr, (seed, row.quantity, gap / stderr)


class TestRunScenario:
    def test_idempotent_bundles(self):
        cfg = fast(get_scenario("fig4a"))
        a = run_scenario(cfg, mode="both", seed=5)
        b = run_scenario(cfg, mode="both", seed=5)
        assert a.rows == b.rows
        assert sorted(a.spectra) == sorted(b.spectra)
        for key in a.spectra:
            assert np.array_equal(a.spectra[key].psd, b.spectra[key].psd)

    def test_seed_changes_montecarlo_only(self):
        cfg = fast(get_scenario("fig4a"))
        a = run_scenario(cfg, mode="both", seed=5)
        b = run_scenario(cfg, mode="both", seed=6)
        for row_a, row_b in zip(a.rows, b.rows):
            assert row_a.analytic_db == row_b.analytic_db
            assert row_a.mc_db != row_b.mc_db

    def test_analytic_mode_has_no_spectra(self):
        result = run_scenario(get_scenario("fig4a"), mode="analytic")
        assert result.spectra == {}
        assert all(row.mc_db is None for row in result.rows)

    def test_montecarlo_mode_fills_mc_only(self):
        result = run_scenario(fast(get_scenario("fig4a")), mode="montecarlo", seed=2)
        assert all(row.analytic_db is None for row in result.rows)
        assert all(row.mc_db is not None for row in result.rows)
        assert {"snl", "electronic"} <= set(result.spectra)

    def test_corrected_spectra_emitted_per_variant(self):
        result = run_scenario(fast(get_scenario("fig4a")), mode="both", seed=2)
        assert "pump450mW_theta0_corrected" in result.spectra
        assert "pump450mW_theta90_corrected" in result.spectra

    @pytest.mark.parametrize("rounds", [16, 200])
    @pytest.mark.parametrize("name", ["fig4a", "fig4b", "fig5b", "fig5c"])
    def test_band_path_rows_equal_whole_grid_rows(self, name, rounds):
        # A sweep reads only the analysis bands' bins; fig5a is not swept.
        cfg = get_scenario(name)
        pump = (cfg.mc_pump_mw or cfg.pump_sweep_mw)[0]
        cfg = replace(cfg, acquisition=replace(cfg.acquisition, rounds=rounds),
                      pump_sweep_mw=(pump,), mc_pump_mw=None)
        whole = run_scenario(cfg, mode="montecarlo", seed=13)
        (bands,) = sweep(cfg, "pump_mw", [pump], mode="montecarlo", seed=13)
        assert [bands["squeezed_mc_db"], bands["antisqueezed_mc_db"]] == [
            row.mc_db for row in whole.rows
        ]

    @pytest.mark.parametrize(
        "analysis, tones",
        [(1.55, ((1.6, 5.0),)), (0.21, ()), (0.21, ((0.1, 5.0),))],
        ids=["tone-in-band", "lowest-band", "lowest-band-tone"],
    )
    def test_band_path_reads_tones_and_lowest_bins_exactly(self, analysis, tones):
        hd = replace(simple_config().hd, analysis_mhz=(analysis,))
        cfg = fast(simple_config(chain=simple_config().chain[:-1] + (hd,),
                                 interference_tones=tones))
        # 0.21 +- 0.2 MHz starts at bin 1, next to the DC bin no band may hold
        assert (band_slice(cfg.acquisition, (analysis,)).start == 1) == (analysis < 0.25)
        whole = run_scenario(cfg, mode="montecarlo", seed=4)
        (bands,) = sweep(cfg, "pump_mw", [450.0], mode="montecarlo", seed=4)
        assert [bands["squeezed_mc_db"], bands["antisqueezed_mc_db"]] == [
            row.mc_db for row in whole.rows
        ]

    def test_band_without_grid_bins_is_a_config_error(self):
        cfg = fast(get_scenario("fig4a"), band_width_mhz=1e-6)
        with pytest.raises(ConfigError, match="no spectrum bins"):
            run_scenario(cfg, mode="montecarlo", seed=1)
        with pytest.raises(ConfigError, match="no spectrum bins"):
            sweep(cfg, "pump_mw", [450.0], mode="montecarlo", seed=1)
        assert run_scenario(cfg, mode="analytic").rows

    @pytest.mark.parametrize(
        "run, targets",
        [(lambda cfg: run_scenario(cfg, mode="both", seed=3), 2),
         (lambda cfg: sweep(cfg, "pump_mw", [270.0, 450.0, 630.0], mode="both", seed=3), 6)],
        ids=["run", "sweep"],
    )
    def test_tabulated_targets_freed_before_the_rounds(self, monkeypatch, run, targets):
        # simulate_spectra holds the totals target_psd builds from the
        # tabulated targets; the tabulated arrays must be gone by the rounds.
        tabulated, alive = [], []
        mc_targets, read_rounds = scenarios._mc_targets, timeseries._read_rounds

        def recording_targets(*args):
            targets = mc_targets(*args)
            tabulated.extend(weakref.ref(target) for target in targets)
            return targets

        def counting_rounds(*args):
            for r in read_rounds(*args):
                alive.append(sum(ref() is not None for ref in tabulated))
                yield r

        monkeypatch.setattr(scenarios, "_mc_targets", recording_targets)
        monkeypatch.setattr(timeseries, "_read_rounds", counting_rounds)
        cfg = fast(get_scenario("fig4a"))
        run(cfg)
        assert len(tabulated) == targets
        assert len(alive) == 3 * cfg.acquisition.rounds
        assert not any(alive)

    def test_too_few_rounds_is_a_config_error(self):
        cfg = fast(get_scenario("fig4a"), rounds=3)
        with pytest.raises(ConfigError, match="at 3 rounds"):
            run_scenario(cfg, mode="both", seed=1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("electronic_floor", float("nan")),
            ("electronic_floor", float("inf")),
            ("interference_tones", ((80.0, float("nan")),)),
            ("interference_tones", ((float("nan"), 1.0),)),
        ],
    )
    def test_non_finite_noise_inputs_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            simple_config(**{field: value})

    def test_tone_beyond_nyquist_rejected(self):
        with pytest.raises(ConfigError, match="Nyquist"):
            simple_config(interference_tones=((30.0, 1.0),))

    def test_summary_csv_layout(self):
        result = run_scenario(get_scenario("fig4a"), mode="analytic")
        lines = summary_csv(result).splitlines()
        assert lines[0] == "scenario,quantity,model_db,reference_db,tolerance_db,pass"
        assert len(lines) == 1 + len(result.rows)
        assert lines[1].startswith("fig4a,")
        assert lines[1].endswith(",true")

    def test_draw_bound_counts_noise_and_mc_pump_spectra(self, monkeypatch):
        class Drawn(Exception):
            pass

        drawn = []

        def drawing(*args):
            drawn.append(args)
            raise Drawn

        # (2 noise + 2 per MC point and phase) spectra x bins read; nothing is
        # drawn here: the first round read of a case that fits stops it.
        monkeypatch.setattr(timeseries, "_read_rounds", drawing)
        acq = replace(get_scenario("fig4a").acquisition, samples_per_round=2**22, rounds=256)
        cfg = replace(get_scenario("fig4a"), acquisition=acq, pump_sweep_mw=(90.0, 270.0, 450.0))
        assert 2**24 == scenarios.MAX_SPECTRUM_VALUES
        with pytest.raises(ConfigError, match=r"3 Monte-Carlo points x 2 LO phases over 2097153 "
                                              r"bins hold 29360142 spectrum values, more than MAX"):
            run_scenario(cfg, mode="montecarlo")
        # Two MC pumps fit on up to 1,677,721 bins; a sweep reads its band's
        # 8,388 bins, so 499 values fit and 500 do not.
        two_pumps = replace(cfg, mc_pump_mw=(90.0, 450.0))
        over = [lambda: run_scenario(two_pumps, mode="both"),
                lambda: run_scenario(fast(two_pumps, samples_per_round=3_355_442), mode="both"),
                lambda: sweep(cfg, "pump_mw", [float(p) for p in range(1, 501)], mode="both")]
        fits = [lambda: run_scenario(replace(cfg, mc_pump_mw=(270.0,)), mode="both"),
                lambda: run_scenario(replace(cfg, mc_pump_mw=()), mode="both"),
                lambda: run_scenario(fast(two_pumps, samples_per_round=3_355_440), mode="both"),
                lambda: sweep(cfg, "pump_mw", [float(p) for p in range(1, 500)], mode="both")]
        for call in over:
            with pytest.raises(ConfigError, match="MAX_SPECTRUM_VALUES"):
                call()
        assert drawn == []
        for call in fits:
            with pytest.raises(Drawn):
                call()
        assert len(drawn) == len(fits)
        assert len(run_scenario(cfg, mode="analytic").rows) == 6
        assert len(drawn) == len(fits)


class TestSweep:
    def test_zero_efficiency_pump_sweep_pins_snl(self):
        cfg = simple_config(
            chain=(
                SourceSpec(escape_efficiency=0.934),
                LossSpec("coupling", 0.854),
                HdSpec(0.0, (0.0, math.pi / 2), (1.55,), efficiency=0.0),
            )
        )
        records = sweep(cfg, "pump_mw", [90.0, 450.0, 810.0])
        for record in records:
            assert record["squeezed_db"] == pytest.approx(0.0, abs=1e-12)
            assert record["antisqueezed_db"] == pytest.approx(0.0, abs=1e-12)

    def test_lock_offset_sweep_degrades_monotonically(self):
        cfg = simple_config(pump_sweep_mw=(270.0,))
        offsets = [math.radians(d) for d in (0.0, 2.0, 4.0, 6.0, 10.0)]
        records = sweep(cfg, "delta_theta_rad", offsets)
        squeezed = [r["squeezed_db"] for r in records]
        assert all(b > a for a, b in zip(squeezed, squeezed[1:]))

    def test_efficiency_sweep_monotone_at_fixed_pump(self):
        cfg = simple_config(pump_sweep_mw=(270.0,))
        records = sweep(cfg, "hd_efficiency", [0.2, 0.5, 0.8, 1.0])
        squeezed = [r["squeezed_db"] for r in records]
        assert all(b < a for a, b in zip(squeezed, squeezed[1:]))

    @pytest.mark.parametrize(
        "name, tones, parameter, values",
        [("fig4b", (), "pump_mw", [180.0, 612.5]), ("fig5c", (), "hd_efficiency", [0.7, 0.95]),
         ("fig4a", (), "hd_efficiency", [0.5, 0.888]), ("fig5b", (), "pump_mw", [270.0, 450.0]),
         ("fig5c", (), "delta_theta_rad", [-0.2, 0.1047]),
         ("fig4b", ((5.0, 2.0),), "pump_mw", [180.0, 450.0, 612.5])],
        ids=["fig4b-pump", "fig5c-efficiency", "fig4a-efficiency", "fig5b-pump", "fig5c-offset",
             "fig4b-tone-pump"],
    )
    def test_mc_columns_match_single_point_runs(self, name, tones, parameter, values):
        # The sweep simulates its noise spectra once and draws every value's
        # signal in one call, over the analysis band's bins only; every value
        # must still read what its own whole-grid run_scenario call reads, bit
        # for bit.  With a tone, each value takes the toned branch.
        cfg = fast(replace(get_scenario(name), interference_tones=tones))
        records = sweep(cfg, parameter, values, mode="both", seed=7)
        for record, value in zip(records, values):
            variant = replace(cfg, pump_sweep_mw=(cfg.pump_sweep_mw[0],), mc_pump_mw=None)
            if parameter == "pump_mw":
                variant = replace(variant, pump_sweep_mw=(value,))
            else:
                field = "efficiency" if parameter == "hd_efficiency" else parameter
                hd = replace(variant.hd, **{field: value})
                variant = replace(variant, chain=variant.chain[:-1] + (hd,))
            rows = run_scenario(variant, mode="both", seed=7).rows
            by_theta = {round(math.degrees(row.theta_rad)): row.mc_db for row in rows}
            assert record["squeezed_mc_db"] == by_theta[0]
            assert record["antisqueezed_mc_db"] == by_theta[90]

    @pytest.mark.parametrize("values", [[450.0], [90.0, 270.0, 450.0, 630.0]], ids=["1", "4"])
    def test_sweep_reads_each_stream_once(self, monkeypatch, values):
        # The SNL, electronic and signal streams: one read per round each,
        # however many values share the signal stream.
        reads = []
        read_rounds = timeseries._read_rounds

        def counting_rounds(*args):
            for r in read_rounds(*args):
                reads.append(1)
                yield r

        monkeypatch.setattr(timeseries, "_read_rounds", counting_rounds)
        cfg = fast(get_scenario("fig4b"))
        sweep(cfg, "pump_mw", values, mode="montecarlo", seed=5)
        assert len(reads) == 3 * cfg.acquisition.rounds

    @pytest.mark.parametrize("name", ["fig4b", "fig5c"])
    @pytest.mark.parametrize(
        "parameter, values",
        [("pump_mw", [90.0, 612.5, 0.0]), ("delta_theta_rad", [-0.2, 0.0, 0.1047]),
         ("hd_efficiency", [0.5, 0.888, 1.0])],
    )
    def test_readout_sweep_propagates_once(self, name, parameter, values, propagations):
        cfg = get_scenario(name)
        records = sweep(cfg, parameter, values, mode="analytic")
        assert propagations == [name]
        for record, value in zip(records, values):
            pumps = (value,) if parameter == "pump_mw" else (cfg.pump_sweep_mw[0],)
            field = "efficiency" if parameter == "hd_efficiency" else parameter
            changes = {} if parameter == "pump_mw" else {field: value}
            hd = replace(cfg.hd, thetas_rad=(0.0, math.pi / 2), **changes)
            variant = replace(cfg, chain=cfg.chain[:-1] + (hd,), pump_sweep_mw=pumps,
                              mc_pump_mw=None)
            rows = run_scenario(variant, mode="analytic").rows
            by_theta = {round(math.degrees(row.theta_rad)): row.analytic_db for row in rows}
            assert record["squeezed_db"] == by_theta[0]
            assert record["antisqueezed_db"] == by_theta[90]

    @pytest.mark.parametrize("mode", ["analytic", "montecarlo", "both"])
    @pytest.mark.parametrize(
        "parameter, values",
        [("pump_mw", [90.0, 270.0, 450.0]), ("delta_theta_rad", [0.0, 0.2]),
         ("hd_efficiency", [0.5, 1.0])],
    )
    def test_every_axis_propagates_once(self, parameter, values, mode, propagations):
        sweep(fast(get_scenario("fig5c")), parameter, values, mode=mode, seed=2)
        assert propagations == ["fig5c"]

    def test_calibration_is_checked_only_in_the_band(self):
        # At 3 rounds and seed 1, 15 grid bins of fast(fig4a) have their
        # shot-noise estimate at or under the electronic one, none of them in
        # the 1.55 MHz band: the whole-grid run fails, the sweep does not.
        cfg = fast(get_scenario("fig4a"), rounds=3)
        with pytest.raises(ConfigError, match="at 3 rounds"):
            run_scenario(cfg, mode="both", seed=1)
        (record,) = sweep(cfg, "pump_mw", [450.0], mode="both", seed=1)
        assert math.isfinite(record["squeezed_mc_db"])
        assert math.isfinite(record["antisqueezed_mc_db"])

    @pytest.mark.parametrize(
        "parameter, values",
        [("pump_mw", [90.0 + 60.0 * k for k in range(12)]),
         ("delta_theta_rad", [-0.3 + 0.05 * k for k in range(12)]),
         ("hd_efficiency", [0.45 + 0.05 * k for k in range(12)])],
    )
    def test_analytic_sweep_cost_does_not_grow_with_values(self, monkeypatch, propagations,
                                                           parameter, values):
        # One propagation and one source-variance evaluation, however many values.
        calls = []
        variances = scenarios.opo_variances

        def counting(*args):
            calls.append(1)
            return variances(*args)

        monkeypatch.setattr(scenarios, "opo_variances", counting)
        counts = []
        for k in (1, 12):
            calls.clear()
            propagations.clear()
            sweep(get_scenario("fig5c"), parameter, values[:k], mode="analytic")
            counts.append((len(propagations), len(calls)))
        assert counts == [(1, 1), (1, 1)]

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            sweep(get_scenario("fig4b"), "lo_power", [1.0])

    def test_csv_layout(self):
        records = sweep(simple_config(), "pump_mw", [90.0, 180.0])
        text = sweep_csv(records)
        lines = text.splitlines()
        assert lines[0] == "parameter,value,squeezed_db,antisqueezed_db"
        assert len(lines) == 3

    def test_asymmetric_scenario_rejected(self):
        with pytest.raises(ConfigError, match="matched"):
            sweep(get_scenario("fig5a"), "pump_mw", [450.0])


class TestEvaluator:
    """run_scenario and sweep share one evaluator; these pin what that
    sharing could change without moving any other test."""

    @staticmethod
    def drawn_streams(monkeypatch) -> list:
        streams = []

        def recording(draw):
            def recorded(models, acq, stream=0, bins=slice(None)):
                streams.append(stream)
                return draw(models, acq, stream, bins)
            return recorded

        for name in ("simulate_spectrum", "simulate_spectra"):
            monkeypatch.setattr(scenarios, name, recording(getattr(scenarios, name)))
        return streams

    @pytest.mark.parametrize(
        "call, match",
        [(lambda cfg: run_scenario(replace(cfg, pump_sweep_mw=(450.0, 990.0)), mode="both"),
          "threshold"),
         (lambda cfg: run_scenario(replace(cfg, pump_sweep_mw=(450.0, 990.0)),
                                   mode="montecarlo"), "threshold"),
         (lambda cfg: sweep(cfg, "pump_mw", [450.0, 990.0], mode="both"), "threshold"),
         (lambda cfg: sweep(cfg, "hd_efficiency", [0.5, 1.5], mode="both"), "efficiency"),
         (lambda cfg: sweep(cfg, "delta_theta_rad", [0.0, math.nan], mode="montecarlo"),
          "delta_theta_rad")],
        ids=["run-both-pump", "run-montecarlo-pump", "sweep-pump", "sweep-efficiency",
             "sweep-offset"],
    )
    def test_every_point_checked_before_any_draw(self, monkeypatch, call, match):
        class Drawn(Exception):
            pass

        def drawing(*args, **kwargs):
            raise Drawn

        monkeypatch.setattr(scenarios, "simulate_spectrum", drawing)
        monkeypatch.setattr(scenarios, "simulate_spectra", drawing)
        # fig4a at its own settings: a draw here would cost a whole-grid run.
        with pytest.raises(ConfigError, match=match):
            call(get_scenario("fig4a"))

    @pytest.mark.parametrize(
        "call",
        [lambda cfg: run_scenario(cfg, mode="both", seed=3),
         lambda cfg: run_scenario(replace(cfg, pump_sweep_mw=(90.0, 270.0, 450.0),
                                          mc_pump_mw=(90.0, 450.0)), mode="both", seed=3),
         lambda cfg: run_scenario(replace(cfg, mc_pump_mw=None), mode="montecarlo", seed=3),
         lambda cfg: sweep(cfg, "pump_mw", [270.0], mode="both", seed=3),
         lambda cfg: sweep(cfg, "pump_mw", [90.0, 450.0, 630.0], mode="montecarlo", seed=3)],
        ids=["run-fig4b", "run-two-of-three-pumps", "run-every-pump", "sweep-1", "sweep-3"],
    )
    def test_every_mc_run_and_sweep_draws_one_signal_stream(self, monkeypatch, call):
        drawn = self.drawn_streams(monkeypatch)
        call(fast(get_scenario("fig4b")))
        assert drawn == [1000, 1, 2]

    @pytest.mark.parametrize("mode", ["both", "montecarlo"])
    def test_no_mc_point_reads_no_signal_stream(self, monkeypatch, mode):
        read = []
        read_rounds = timeseries._read_rounds

        def recording_rounds(seed, stream, *args):
            read.append(stream)
            return read_rounds(seed, stream, *args)

        monkeypatch.setattr(timeseries, "_read_rounds", recording_rounds)
        cfg = replace(fast(get_scenario("fig4b")), mc_pump_mw=())
        result = run_scenario(cfg, mode=mode, seed=3)
        assert read == [1, 2]
        assert sorted(result.spectra) == ["electronic", "snl"]
        assert timeseries.simulate_spectra([], get_scenario("fig4a").acquisition) == []
        assert read == [1, 2]

    @pytest.mark.parametrize("name", ["fig4b", "fig5c"])
    def test_run_rows_equal_the_sweep_at_their_pump(self, name):
        # Every Monte-Carlo pump reads the one signal stream, so its rows
        # depend on neither its place in the sweep nor the other pumps.
        cfg = replace(fast(get_scenario(name)), mc_pump_mw=None)
        rows = {}
        for pumps in (cfg.pump_sweep_mw, cfg.pump_sweep_mw[::-1]):
            result = run_scenario(replace(cfg, pump_sweep_mw=pumps), mode="both", seed=5)
            rows[pumps] = {(row.pump_mw, round(math.degrees(row.theta_rad))): row.mc_db
                           for row in result.rows}
        forward, backward = rows.values()
        assert len(forward) == 18 and forward == backward
        for pump in cfg.pump_sweep_mw:
            (record,) = sweep(cfg, "pump_mw", [pump], mode="both", seed=5)
            assert record["squeezed_mc_db"] == forward[pump, 0]
            assert record["antisqueezed_mc_db"] == forward[pump, 90]

    def test_montecarlo_sweep_fills_the_model_columns(self):
        records = sweep(fast(get_scenario("fig4b")), "pump_mw", [270.0, 450.0],
                        mode="montecarlo", seed=3)
        for record in records:
            assert record["squeezed_db"] == record["squeezed_mc_db"]
            assert record["antisqueezed_db"] == record["antisqueezed_mc_db"]
        assert "None" not in sweep_csv(records)


class TestReferenceTable:
    def test_round_trip_is_bit_exact(self):
        text = emit_reference()
        entries = parse_reference(text)
        assert emit_reference(entries) == text
        assert entries == tuple(sorted(REFERENCE_TABLE, key=lambda e: (e.scenario, e.quantity)))

    def test_provenance_non_empty(self):
        for entry in REFERENCE_TABLE:
            assert entry.provenance.strip()

    def test_every_entry_matches_a_builtin_quantity(self):
        for entry in REFERENCE_TABLE:
            result = run_scenario(get_scenario(entry.scenario), mode="analytic")
            assert entry.quantity in {row.quantity for row in result.rows}

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_reference("a,b,c\n")


class TestConfigIo:
    def test_dict_round_trip_for_builtins(self):
        for name in sorted(BUILTIN_SCENARIOS):
            cfg = get_scenario(name)
            assert scenario_from_dict(scenario_to_dict(cfg)) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = get_scenario("fig5b")
        path = tmp_path / "fig5b.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)

    @pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
    def test_keys_at_their_defaults_may_be_left_out(self, name):
        cfg = get_scenario(name)
        data = scenario_to_dict(cfg)
        for spec, keys in [(cfg, data), (cfg.acquisition, data["acquisition"]),
                           *zip(cfg.chain, data["chain"])]:
            for field in fields(spec):
                if field.default is not MISSING and getattr(spec, field.name) == field.default:
                    del keys[field.name]
        assert "mode" not in data and "rounds" not in data["acquisition"]
        assert scenario_from_dict(data) == cfg

    def test_description_may_be_left_out(self):
        data = scenario_to_dict(get_scenario("fig4a"))
        del data["description"]
        assert scenario_from_dict(data) == replace(get_scenario("fig4a"), description="")

    @pytest.mark.parametrize(
        "path, where",
        [(("name",), "the config's top level"), (("acquisition",), "the config's top level"),
         (("chain", 1, "label"), "chain element 1 (loss)"),
         (("chain", 2, "lo_offset_mhz"), "chain element 2 (hd)")],
    )
    def test_missing_required_key_named(self, path, where):
        data = scenario_to_dict(get_scenario("fig4a"))
        *keys, last = path
        target = data
        for key in keys:
            target = target[key]
        del target[last]
        with pytest.raises(ConfigError, match=re.escape(f"missing key {last!r} in {where}")):
            scenario_from_dict(data)

    def test_unknown_kind_rejected(self):
        data = scenario_to_dict(get_scenario("fig4a"))
        data["chain"][0]["kind"] = "laser"
        with pytest.raises(ConfigError, match="kind"):
            scenario_from_dict(data)

    def test_modified_config_runs(self, tmp_path):
        data = scenario_to_dict(get_scenario("fig4a"))
        data["name"] = "fig4a-lossier"
        data["chain"][1]["efficiency"] = 0.5
        cfg = scenario_from_dict(data)
        result = run_scenario(cfg, mode="analytic")
        assert all(row.passed is None for row in result.rows)


# Per axis: the builtin's own value, valid values (drawn often enough for
# duplicates), and invalid ones.
AXIS_VALUES = {
    "pump_mw": (lambda cfg: cfg.pump_sweep_mw[0],
                st.floats(0.0, 979.999) | st.sampled_from([0.0, 90.0, 979.999]),
                [980.0, 2000.0, -1.0]),
    "delta_theta_rad": (lambda cfg: cfg.hd.delta_theta_rad,
                        st.floats(-4.0, 4.0) | st.sampled_from([0.0, -math.pi, 1e6]), []),
    "hd_efficiency": (lambda cfg: cfg.hd.efficiency,
                      st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0]), [-0.1, 1.5]),
}
NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def first_value_error(cfg: ScenarioConfig, parameter: str, values) -> str | None:
    """The ConfigError text of the first invalid sweep value, or None."""
    for value in values:
        if parameter == "pump_mw":
            if not (math.isfinite(value) and value >= 0.0):
                return f"scenario pump_sweep_mw must be a finite number in [0, inf], got {value!r}"
            threshold = cfg.source.threshold_mw
            if value >= threshold:
                return (f"pump {value} mW is at or above threshold {threshold} mW; "
                        "the below-threshold model does not apply")
        elif parameter == "delta_theta_rad":
            if not math.isfinite(value):
                return f"hd delta_theta_rad must be a finite number, got {value!r}"
        elif not (math.isfinite(value) and 0.0 <= value <= 1.0):
            return f"hd efficiency must be a finite number in [0, 1], got {value!r}"
    return None


@st.composite
def sweep_cases(draw):
    """(config, axis, values): a matched-LO builtin whose tuner, if any, has a
    random phase and visibility, and whose chain carries one or two fuzzed
    loss, AOM and tuner elements; 1-16 values, with the builtin's own value,
    duplicates and, in about a third of the cases, invalid values."""
    name = draw(st.sampled_from(["fig4a", "fig4b", "fig5b", "fig5c"]))
    data = scenario_to_dict(get_scenario(name))
    for element in data["chain"]:
        if element["kind"] == "abi":
            element.update(phi_rad=draw(st.floats(-4.0, 4.0)), visibility=draw(st.floats(0.0, 1.0)))
    for change in draw(st.lists(chain_change, min_size=1, max_size=2)):
        apply_chain_change(data["chain"], change)
    try:
        cfg = scenario_from_dict(data)
        chain_response(cfg)
    except ConfigError:
        assume(False)
    assume(cfg.is_symmetric(cfg.hd.analysis_mhz[0]))
    parameter = draw(st.sampled_from(sorted(AXIS_VALUES)))
    own, valid, invalid = AXIS_VALUES[parameter]
    values = draw(st.lists(valid | st.just(own(cfg)), min_size=1, max_size=13))
    for _ in range(draw(st.integers(0, 2))):
        values.insert(draw(st.integers(0, len(values))), draw(st.sampled_from(values)))
    if draw(st.integers(0, 2)) == 0:
        bad = draw(st.sampled_from(invalid + NON_FINITE))
        values.insert(draw(st.integers(0, len(values))), bad)
    return cfg, parameter, values


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=sweep_cases())
def test_analytic_sweep_records_equal_per_point_readout(case):
    cfg, parameter, values = case
    message = first_value_error(cfg, parameter, values)
    if message is not None:
        with pytest.raises(ConfigError) as exc:
            sweep(cfg, parameter, values, mode="analytic")
        assert str(exc.value) == message
        return
    records = sweep(cfg, parameter, values, mode="analytic")
    expected = []
    for value in values:
        variant, pump = cfg, cfg.pump_sweep_mw[0]
        if parameter == "pump_mw":
            pump = value
        else:
            field = "efficiency" if parameter == "hd_efficiency" else parameter
            variant = replace(cfg, chain=cfg.chain[:-1] + (replace(cfg.hd, **{field: value}),))
        analysis = cfg.hd.analysis_mhz[0]
        expected.append({
            "parameter": parameter,
            "value": value,
            "squeezed_db": db(analytic_noise(variant, pump, 0.0, analysis)),
            "antisqueezed_db": db(analytic_noise(variant, pump, math.pi / 2, analysis)),
        })
    assert records == expected
