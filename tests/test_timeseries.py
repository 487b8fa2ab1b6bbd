import contextlib
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import mc_target_psd, per_cell_rows
from oracles import estimate_spectrum, mean_power
from sqztune.homodyne import undb
from sqztune import timeseries
from sqztune.scenarios import HdSpec, ScenarioConfig, SourceSpec
from sqztune.timeseries import (
    AcquisitionParams,
    _band_mask,
    NoiseModel,
    SpectrumEstimate,
    band_power,
    band_power_stderr,
    band_slice,
    calibrate,
    periodogram,
    simulate_spectra,
    simulate_spectrum,
    spectrum_from_csv,
    spectrum_to_csv,
    synthesize_round,
    write_spectra_csv,
)

SMALL = AcquisitionParams(
    sample_rate_msps=50.0,
    samples_per_round=4096,
    rounds=64,
    band_center_mhz=1.55,
    band_width_mhz=0.4,
    rng_seed=99,
)


# Beat-readout rate with 80 MHz on the grid (bin 3200 of 0.025 MHz).
BEAT = AcquisitionParams(
    sample_rate_msps=250.0,
    samples_per_round=10_000,
    rounds=24,
    band_center_mhz=81.55,
    band_width_mhz=0.1,
    rng_seed=17,
)
TONE = ((80.0, 30.0),)
# Two on-grid tones far apart (bins 3200 and 800), and one 5/16 of a bin off
# the grid (bin 2000.3125, exact in binary).
TWO_TONES = ((80.0, 30.0), (20.0, 20.0))
OFF_GRID = ((50.0078125, 30.0),)


def flat(level: float):
    def psd(freqs):
        return np.full(np.shape(freqs), level)

    return psd


def lorentzian(freqs):
    return 0.4 + 2.0 / (1.0 + (np.asarray(freqs) / 15.6) ** 2)


class TestAcquisitionParams:
    def test_defaults_follow_acquisition_settings(self):
        acq = AcquisitionParams()
        assert acq.sample_rate_msps == 50.0
        assert acq.samples_per_round == 50_000
        assert acq.rounds == 500
        assert acq.band_width_mhz == 0.1
        assert acq.bin_spacing_mhz == pytest.approx(1e-3)

    @pytest.mark.parametrize("n", [1024, 4096, 50_000, 123_456])
    @pytest.mark.parametrize("rate", [33.3, 50.0, 100.0 / 3.0, 250.0])
    def test_grid_range_is_the_rfftfreq_slice(self, n, rate):
        acq = AcquisitionParams(sample_rate_msps=rate, samples_per_round=n, band_center_mhz=1.0)
        grid = np.fft.rfftfreq(n, d=1.0 / rate)
        assert np.array_equal(acq.grid_mhz, grid)
        m = n // 2 + 1
        for k0, k1 in ((0, m), (0, 1), (7, 130), (m - 3, m)):
            assert np.array_equal(acq.grid_range_mhz(k0, k1), grid[k0:k1])

    def test_nyquist_violation_rejected(self):
        # The Nyquist rule applies to the scenario's analysis bands; the
        # acquisition's band_center_mhz sets no band.
        def config(analysis_mhz, rate):
            return ScenarioConfig(
                name="nyquist", description="",
                chain=(SourceSpec(), HdSpec(0.0, (0.0,), (analysis_mhz,))),
                pump_sweep_mw=(450.0,), acquisition=AcquisitionParams(sample_rate_msps=rate),
            )

        with pytest.raises(ValueError, match="analysis band at 25.0 MHz exceeds the Nyquist"):
            config(25.0, 50.0)
        # the beat band needs the faster sampling rate
        config(81.55, 250.0)
        AcquisitionParams(sample_rate_msps=50.0, band_center_mhz=25.0)

    def test_odd_sample_count_rejected(self):
        with pytest.raises(ValueError, match="even"):
            AcquisitionParams(samples_per_round=4097)

    def test_bad_rounds_and_seed_rejected(self):
        with pytest.raises(ValueError):
            AcquisitionParams(rounds=0)
        with pytest.raises(ValueError):
            AcquisitionParams(rng_seed=-1)
        # a seed is a Philox key, of 128 bits
        AcquisitionParams(rng_seed=2**128 - 1)
        with pytest.raises(ValueError, match=r"rng_seed must be in \[0, 2\*\*128\)"):
            AcquisitionParams(rng_seed=2**128)

    def test_resource_bounds(self):
        n, draws = timeseries.MAX_SAMPLES_PER_ROUND, timeseries.MAX_DRAWS_PER_STREAM
        AcquisitionParams(samples_per_round=n, rounds=draws // n)
        with pytest.raises(ValueError, match="acquisition samples_per_round .*whole-grid"):
            AcquisitionParams(samples_per_round=n + 2, rounds=1)
        with pytest.raises(ValueError, match="acquisition rounds .*draws per stream"):
            AcquisitionParams(samples_per_round=n, rounds=draws // n + 1)
        # a product beyond int64 must not wrap round to an accepted value
        with pytest.raises(ValueError, match="draws per stream"):
            AcquisitionParams(samples_per_round=np.int64(50_000), rounds=np.int64(10**15))
        # the builtins' 50,000 samples at 500 rounds keep at least 10x headroom
        assert n >= 10 * 50_000 and draws >= 10 * 50_000 * 500

    @pytest.mark.parametrize(
        "field, value",
        [("rounds", 2.5), ("rounds", True), ("samples_per_round", 4096.0), ("rng_seed", 1.5),
         ("rng_seed", "7"), ("sample_rate_msps", float("nan")), ("sample_rate_msps", True),
         ("band_center_mhz", float("inf")), ("band_width_mhz", float("nan")),
         ("band_width_mhz", None)],
    )
    def test_non_integer_or_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"acquisition {field} must be"):
            AcquisitionParams(**{field: value})


class TestSynthesizeRound:
    def test_same_seed_is_bit_identical(self):
        model = NoiseModel(flat(1.0), electronic_floor=0.0)
        a = synthesize_round(model, SMALL, 7)
        b = synthesize_round(model, SMALL, 7)
        assert np.array_equal(a, b)

    def test_rounds_and_streams_differ(self):
        model = NoiseModel(flat(1.0), electronic_floor=0.0)
        a = synthesize_round(model, SMALL, 0)
        b = synthesize_round(model, SMALL, 1)
        c = synthesize_round(model, SMALL, 0, stream=5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_flat_unit_psd_gives_unit_variance(self):
        model = NoiseModel(flat(1.0), electronic_floor=0.0)
        variances = [np.var(synthesize_round(model, SMALL, i)) for i in range(32)]
        sigma = np.sqrt(2.0 / SMALL.samples_per_round / 32)
        assert np.mean(variances) == pytest.approx(1.0, abs=3 * sigma)

    def test_zero_psd_with_floor_recovers_floor(self):
        model = NoiseModel(None, electronic_floor=0.31)
        est = simulate_spectrum(model, SMALL)
        level = band_power(est, 10.0, 5.0)
        assert level == pytest.approx(0.31, rel=0.05)

    def test_negative_psd_rejected(self):
        model = NoiseModel(flat(-1.0), electronic_floor=0.0)
        with pytest.raises(ValueError, match="non-negative"):
            synthesize_round(model, SMALL, 0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(electronic_floor=float("nan")),
            dict(electronic_floor=float("inf")),
            dict(interference_tones=((80.0, float("nan")),)),
            dict(interference_tones=((float("inf"), 1.0),)),
        ],
    )
    def test_non_finite_noise_inputs_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(None, **kwargs)

    def test_tone_beyond_nyquist_rejected(self):
        model = NoiseModel(None, electronic_floor=0.1, interference_tones=((30.0, 1.0),))
        with pytest.raises(ValueError, match="Nyquist"):
            synthesize_round(model, SMALL, 0)

    def test_on_grid_tone_lands_in_one_bin(self):
        power = 25.0
        freq = 5.0  # exactly on the 4096-point grid at 50 MS/s? 5/0.012207 = 409.6 -> off grid
        acq = AcquisitionParams(
            sample_rate_msps=50.0, samples_per_round=4000, rounds=8,
            band_center_mhz=5.0, band_width_mhz=0.5, rng_seed=1,
        )
        model = NoiseModel(None, electronic_floor=0.0, interference_tones=((freq, power),))
        trace = synthesize_round(model, acq, 0)
        gram = periodogram(trace)
        k = int(round(freq / acq.bin_spacing_mhz))
        assert gram[k] == pytest.approx(power, rel=1e-9)
        assert gram[k - 3] < 1e-15


class TestToneSpectrum:
    """T, the closed-form DFT of a model's tones, and the kernel that reads it."""

    M = BEAT.samples_per_round // 2 + 1

    @staticmethod
    def tone_only(tones):
        # With no stochastic part the periodogram of every round is |T|^2 / n.
        return NoiseModel(None, electronic_floor=0.0, interference_tones=tones)

    def test_on_grid_tone_is_one_bin_exactly(self):
        n = BEAT.samples_per_round
        model = self.tone_only(TWO_TONES)
        tone = timeseries._tone_spectrum(model, BEAT, 0, self.M)
        for freq, power in TWO_TONES:
            j = int(freq * n / BEAT.sample_rate_msps)
            assert tone[j] == 2.0 * np.sqrt(power / n) * n / 2.0
        assert np.flatnonzero(tone).tolist() == [800, 3200]
        psd = simulate_spectrum(model, BEAT).psd
        assert psd[[800, 3200]] == pytest.approx([20.0, 30.0], rel=1e-14)
        assert np.flatnonzero(psd).tolist() == [800, 3200]

    @pytest.mark.parametrize("freq", [50.01, 0.0125, 124.9625])
    def test_off_grid_tone_matches_the_fft_of_its_record(self, freq):
        # 0.0125 MHz is half a bin: its leakage peaks at DC.  124.9625 MHz sits
        # 1.5 bins below Nyquist, so its leakage there is the same order.
        model = self.tone_only(((freq, 2.0),))
        expected = np.fft.rfft(timeseries._add_tones(np.zeros(BEAT.samples_per_round), model, BEAT))
        tone = timeseries._tone_spectrum(model, BEAT, 0, self.M)
        peak = np.abs(expected).max()
        assert np.abs(tone - expected).max() < 1e-9 * peak
        assert np.all(tone != 0)
        part = timeseries._tone_spectrum(model, BEAT, 3190, 3210)
        assert np.array_equal(part, tone[3190:3210])
        # The kernel reads T at the real DC and Nyquist bins too.
        n = BEAT.samples_per_round
        for bins in (slice(0, 20), slice(self.M - 20, self.M)):
            psd = simulate_spectrum(model, BEAT, bins=bins).psd
            gram = np.abs(expected[bins]) ** 2 / n
            assert np.allclose(psd, gram, rtol=0.0, atol=1e-9 * peak**2 / n)

    def test_tone_at_nyquist_rejected(self):
        model = self.tone_only(((125.0, 1.0),))
        with pytest.raises(ValueError, match="Nyquist"):
            simulate_spectrum(model, BEAT)

    @pytest.mark.parametrize("tones, hot", [(TONE, [3200]), (TWO_TONES, [800, 3200])],
                             ids=["one-tone", "two-tones"])
    def test_a_round_reads_one_phase_word_per_tone_bin(self, monkeypatch, tones, hot):
        m, reads = self.M, []
        read_rounds = timeseries._read_rounds

        def recording(seed, stream, rounds, runs, words):
            for r in read_rounds(seed, stream, rounds, runs, words):
                read = [word for start, lo, hi in runs for word in range(start, start + hi - lo)]
                reads.append((r, read))
                yield r

        monkeypatch.setattr(timeseries, "_read_rounds", recording)
        model = NoiseModel(lorentzian, electronic_floor=0.1, interference_tones=tones)
        simulate_spectrum(model, BEAT)
        assert [r for r, _ in reads] == list(range(BEAT.rounds))
        for _, read in reads:
            assert sorted(read) == [*range(m + 2), *(m + 2 + k for k in hot)]


class TestDrawMap:
    """The seed->numbers map of one round (word layout in the timeseries docstring)."""

    UNIT = NoiseModel(flat(1.0), electronic_floor=0.0)

    def test_golden_bin_powers(self):
        # With a unit PSD and one round the spectrum is the bin powers w.
        est = simulate_spectrum(self.UNIT, replace(SMALL, rounds=1), stream=7)
        m = est.psd.size
        words = np.random.Generator(np.random.Philox(key=99, counter=[0, 0, 7, 0])).random(m + 2)
        w = -np.log1p(-words[:m])
        cos = np.cos(2.0 * np.pi * words[m:])
        w[[0, -1]] *= 2.0 * cos * cos
        assert np.array_equal(est.psd[1:-1], w[1:-1])
        assert np.allclose(est.psd[[0, -1]], w[[0, -1]], rtol=1e-15, atol=0.0)
        golden = [1.342079059506772, 0.8301333549985506, 3.01340117168711,
                  1.0703581781620701, 0.396550895621472]
        assert np.allclose(est.psd[:5], golden, rtol=1e-14, atol=0.0)
        assert est.psd[-1] == pytest.approx(0.01006428138626638, rel=1e-14)

    def test_interior_powers_are_exp1(self):
        acq = replace(SMALL, samples_per_round=2**17, rounds=1)
        w = simulate_spectrum(self.UNIT, acq, stream=2).psd[1:-1]
        # standard errors at 65,535 bins: 0.004 on the mean, 0.011 on the variance
        assert w.mean() == pytest.approx(1.0, abs=0.02)
        assert w.var() == pytest.approx(1.0, abs=0.06)

    def test_dc_and_nyquist_powers_are_chi2_1(self):
        # two samples per round: the grid is the DC and Nyquist bins alone
        rounds = 20_000
        acq = replace(SMALL, samples_per_round=2, rounds=rounds)
        est = simulate_spectrum(self.UNIT, acq, stream=3)
        var = est.stderr**2 * rounds
        # standard errors at 20,000 rounds: 0.01 on the mean, 0.053 on the variance
        assert np.allclose(est.psd, 1.0, atol=0.05)
        assert np.allclose(var, 2.0, atol=0.3)

    @pytest.mark.parametrize(
        "bins",
        [slice(None), slice(0, 5001), slice(3197, 3206), slice(3203, 3204), slice(0, 7),
         slice(0, 1), slice(4990, 5001), slice(5000, 5001), slice(1, 5000), slice(799, 3202),
         slice(1500, 1501)],
        ids=["default", "whole-grid", "tone-band", "one-bin", "dc-band", "dc-bin",
             "nyquist-band", "nyquist-bin", "interior", "both-tones", "between-tones"],
    )
    def test_bin_range_reads_the_whole_grid_words(self, bins):
        # BEAT has m = 5001 bins, its 80 MHz tone in bin 3200 and a 20 MHz one
        # in bin 800; ranges start at every word offset within a 4-word
        # Philox block.  The off-grid tone reaches every bin.
        toned = NoiseModel(lorentzian, electronic_floor=0.1, interference_tones=TONE)
        two = NoiseModel(flat(0.7), electronic_floor=0.1, interference_tones=TWO_TONES)
        off = NoiseModel(lorentzian, electronic_floor=0.1, interference_tones=OFF_GRID)
        plain = NoiseModel(flat(0.3), electronic_floor=0.1)
        for models in ([toned, plain], [plain], [two, plain], [two, off, plain], [off]):
            whole = simulate_spectra(models, BEAT, stream=4)
            part = simulate_spectra(models, BEAT, stream=4, bins=bins)
            for model, w, p in zip(models, whole, part):
                for field in ("freqs_mhz", "psd", "stderr"):
                    assert np.array_equal(getattr(w, field)[bins], getattr(p, field))
                for freq, _ in model.interference_tones:
                    k = round(freq / BEAT.bin_spacing_mhz)
                    assert w.psd[k] > 10.0 * w.psd[k - 10]

    @pytest.mark.parametrize("bins", [slice(5, 5), slice(0, None, 2), slice(6000, 7000)])
    def test_bad_bin_range_rejected(self, bins):
        with pytest.raises(ValueError, match="bins"):
            simulate_spectrum(self.UNIT, BEAT, bins=bins)


class TestRoundKeys:
    """Each round's words: Philox keyed by the seed, from counter
    (0, round, stream, 0)."""

    @pytest.mark.parametrize(
        "seed, stream",
        [(99, 7), (2**64, 2**40), (0, 0), (0, 2**64 - 1), (2**64, 0), (2**128 - 1, 0),
         (2**128 - 1, 2**64 - 1)],
    )
    def test_rekeyed_generator_reads_each_round_stream(self, seed, stream):
        # Two runs per round at word offsets across a 4-word Philox block;
        # each leaves a part-used block that the next run must not read.
        offsets = [0, 1, 3, 4, 5, 1001]
        words = np.empty(63)
        for start in offsets:
            runs = [(start, 0, 30), (start + 40, 30, 63)]
            rounds = timeseries._read_rounds(seed, stream, range(len(offsets)), runs, words)
            for r in rounds:
                counter = np.array([0, r, stream, 0], dtype=np.uint64)
                philox = np.random.Philox(key=seed, counter=counter)
                expected = np.random.Generator(philox).random(start + 73)
                assert np.array_equal(words[:30], expected[start:start + 30])
                assert np.array_equal(words[30:], expected[start + 40:])

    @staticmethod
    def read(seed, stream, rounds, runs, size):
        """The words each round of ``rounds`` reads, one row per round."""
        words = np.empty(size)
        return [words.copy() for _ in timeseries._read_rounds(seed, stream, rounds, runs, words)]

    def test_rounds_and_streams_read_different_words(self):
        rounds = self.read(99, 0, range(2), [(0, 0, 8)], 8)
        streams = [self.read(99, s, range(1), [(0, 0, 8)], 8)[0] for s in (0, 1)]
        # round 1 of stream 0 and round 0 of stream 1 are different counters too
        for a, b in ((rounds[0], rounds[1]), (streams[0], streams[1]), (rounds[1], streams[1])):
            assert not np.any(a == b)

    def test_a_round_reads_the_same_words_alone_or_after_others(self):
        # The runs end inside a Philox block, out of stream order, and the
        # round ends with words of its last block unread.
        runs = [(5, 0, 30), (2, 30, 31), (1001, 31, 63)]
        after = self.read(7, 3, range(5), runs, 63)
        for r in range(5):
            assert np.array_equal(self.read(7, 3, range(r, r + 1), runs, 63)[0], after[r])

    def test_stream_beyond_the_counter_word_rejected(self):
        model = NoiseModel(flat(1.0))
        acq = replace(SMALL, rounds=1)
        simulate_spectrum(model, acq, stream=2**64 - 1)
        bound = r"stream must be in \[0, 2\*\*64\)"
        with pytest.raises(ValueError, match=bound):
            simulate_spectrum(model, acq, stream=2**64)
        with pytest.raises(ValueError, match=bound):
            synthesize_round(model, acq, 0, stream=2**64)


class TestEstimateSpectrum:
    def test_zero_traces_give_zero_psd(self):
        traces = [np.zeros(SMALL.samples_per_round)]
        est = estimate_spectrum(traces, SMALL)
        assert np.all(est.psd == 0.0)
        assert np.all(est.stderr == 0.0)

    def test_white_noise_level_within_stderr(self):
        level = 2.4
        model = NoiseModel(flat(level), electronic_floor=0.0)
        traces = [synthesize_round(model, SMALL, i) for i in range(SMALL.rounds)]
        est = estimate_spectrum(traces, SMALL)
        got = band_power(est, 10.0, 8.0)
        err = band_power_stderr(est, 10.0, 8.0)
        assert abs(got - level) < 3 * err

    def test_matches_streaming_estimator(self):
        model = NoiseModel(flat(0.7), electronic_floor=0.05)
        traces = [synthesize_round(model, SMALL, i) for i in range(SMALL.rounds)]
        batch = estimate_spectrum(traces, SMALL)
        streamed = simulate_spectrum(model, SMALL)
        assert np.allclose(batch.psd, streamed.psd, rtol=1e-12, atol=1e-15)
        assert np.allclose(batch.stderr, streamed.stderr, rtol=1e-9, atol=1e-12)

    def test_matches_reference_path_for_sloped_psd_with_tone(self):
        self.check_reference_path(TONE)

    def test_matches_reference_path_for_sloped_psd_with_off_grid_tone(self):
        self.check_reference_path(OFF_GRID)

    @staticmethod
    def check_reference_path(tones):
        model = NoiseModel(lorentzian, electronic_floor=0.1, interference_tones=tones)
        traces = [synthesize_round(model, BEAT, i, stream=3) for i in range(BEAT.rounds)]
        batch = estimate_spectrum(traces, BEAT)
        streamed = simulate_spectrum(model, BEAT, stream=3)
        k = round(tones[0][0] / BEAT.bin_spacing_mhz)
        assert streamed.psd[k] > 10.0 * streamed.psd[k - 10]
        assert np.allclose(batch.psd, streamed.psd, rtol=1e-12, atol=0.0)
        assert np.allclose(batch.stderr, streamed.stderr, rtol=1e-9, atol=1e-12)

    def test_shared_draws_match_separate_calls(self):
        # A bin's value depends on neither the other models of the call nor
        # which of them have tones, on or off the grid.
        models = [
            NoiseModel(lorentzian, electronic_floor=0.1),
            NoiseModel(flat(0.3), electronic_floor=0.1, interference_tones=TONE),
            NoiseModel(None, electronic_floor=0.0),
            NoiseModel(flat(2.5), electronic_floor=0.1, interference_tones=OFF_GRID),
            NoiseModel(flat(2.5), electronic_floor=0.1),
        ]
        together = simulate_spectra(models, BEAT, stream=5)
        for model, est in zip(models, together):
            alone = simulate_spectrum(model, BEAT, stream=5)
            assert np.array_equal(est.psd, alone.psd)
            assert np.array_equal(est.stderr, alone.stderr)
        assert together[1].psd[3200] > 10.0 * together[1].psd[3190]
        assert together[3].psd[2000] > 3.0 * together[4].psd[2000]

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(ValueError, match="lengths"):
            estimate_spectrum([np.zeros(4096), np.zeros(2048)], SMALL)
        with pytest.raises(ValueError, match="lengths"):
            estimate_spectrum([np.zeros(1024)], SMALL)

    def test_no_traces_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            estimate_spectrum([], SMALL)

    def test_grid_spacing_invariant(self):
        est = simulate_spectrum(NoiseModel(None, 0.1), SMALL)
        spacing = np.diff(est.freqs_mhz)
        assert np.allclose(spacing, SMALL.bin_spacing_mhz, rtol=1e-12)

    def test_parseval_round_power(self):
        model = NoiseModel(flat(1.3), electronic_floor=0.0, interference_tones=((10.009765625, 4.0),))
        trace = synthesize_round(model, SMALL, 3)
        est = estimate_spectrum([trace], SMALL)
        assert mean_power(est) == pytest.approx(float(np.mean(trace**2)), rel=1e-9)

    def test_stderr_scales_inverse_sqrt_rounds(self):
        model = NoiseModel(flat(1.0), electronic_floor=0.0)
        errs = {}
        for rounds in (50, 200, 500):
            acq = AcquisitionParams(
                sample_rate_msps=50.0, samples_per_round=2048, rounds=rounds,
                band_center_mhz=10.0, band_width_mhz=8.0, rng_seed=4,
            )
            est = simulate_spectrum(model, acq)
            errs[rounds] = band_power_stderr(est, 10.0, 8.0)
        assert errs[50] / errs[500] == pytest.approx(np.sqrt(10.0), rel=0.2)
        assert errs[200] / errs[500] == pytest.approx(np.sqrt(2.5), rel=0.2)


class TestBandPower:
    def test_flat_spectrum_any_band(self):
        freqs = np.linspace(0, 25, 251)
        est = SpectrumEstimate(freqs, np.full(251, 3.3), np.zeros(251))
        assert band_power(est, 1.55, 0.1) == pytest.approx(3.3)
        assert band_power(est, 20.0, 5.0) == pytest.approx(3.3)

    def test_band_with_tone_exceeds_neighbor(self):
        acq = AcquisitionParams(
            sample_rate_msps=250.0, samples_per_round=10_000, rounds=20,
            band_center_mhz=81.55, band_width_mhz=0.1, rng_seed=11,
        )
        model = NoiseModel(flat(1.0), electronic_floor=0.0, interference_tones=((80.0, 30.0),))
        est = simulate_spectrum(model, acq)
        assert band_power(est, 80.0, 0.1) > band_power(est, 81.55, 0.1)

    def test_empty_band_rejected(self):
        freqs = np.linspace(0, 25, 26)
        est = SpectrumEstimate(freqs, np.ones(26), np.zeros(26))
        with pytest.raises(ValueError, match="no spectrum bins"):
            band_power(est, 1.55, 0.1)

    def test_band_slice_spans_exactly_the_integrated_bins(self):
        # BEAT's grid step is 0.025 MHz: 81.55 +- 0.05 holds bins 3260..3264
        # and 78.45 +- 0.05 bins 3136..3140, edges included.
        assert band_slice(BEAT, (81.55,)) == slice(3260, 3265)
        assert band_slice(BEAT, (81.55, 78.45)) == slice(3136, 3265)
        with pytest.raises(ValueError, match="no spectrum bins"):
            band_slice(replace(SMALL, band_width_mhz=1e-6), (1.55,))

    @pytest.mark.parametrize("rate, n", [(33.3, 4096), (100.0 / 3.0, 1024), (77.7, 12_346)])
    def test_band_slice_equals_the_whole_grid_mask(self, rate, n):
        # Odd rates, and bands whose padded edge lies a few rounding steps
        # either side of a bin: band_slice masks only a window around each
        # band and must still find the whole-grid mask's range.
        grid = np.fft.rfftfreq(n, d=1.0 / rate)

        def whole_grid(group, width):
            masks = [_band_mask(grid, c, width) for c in group]
            inside = np.flatnonzero(np.logical_or.reduce(masks))
            return slice(int(inside[0]), int(inside[-1]) + 1)

        for width in (rate / n, 2.5 * rate / n, 0.1):
            acq = AcquisitionParams(rate, n, 1, 1.0, width, 0)
            centers = []
            for f in grid[1 : n // 2 - 10 : n // 100]:
                # Centers whose padded lower or upper edge is exactly f (for
                # centers above 1 MHz), stepped by 1 ulp from -4 to +4.
                for c in ((f + width / 2) / (1 - 1e-9), (f - width / 2) / (1 + 1e-9)):
                    for _ in range(4):
                        c = np.nextafter(c, 0.0)
                    for _ in range(9):
                        centers.append(float(c))
                        c = np.nextafter(c, np.inf)
            centers = [c for c in centers if 0 < c - width / 2 and c + width / 2 < rate / 2]
            for group in [[c] for c in centers] + [centers[:3], centers[-4:]]:
                try:
                    expected = whole_grid(group, width)
                except ValueError:
                    with pytest.raises(ValueError, match="no spectrum bins"):
                        band_slice(acq, group)
                    continue
                assert band_slice(acq, group) == expected


class TestCalibrate:
    def test_signal_equal_to_snl_gives_unity(self):
        freqs = np.linspace(0, 25, 100)
        snl = SpectrumEstimate(freqs, np.full(100, 1.1), np.zeros(100))
        elec = SpectrumEstimate(freqs, np.full(100, 0.1), np.zeros(100))
        out = calibrate(snl, snl, elec)
        assert np.allclose(out.psd, 1.0, atol=1e-12)
        assert not out.clipped

    def test_signal_at_electronic_floor_clips(self):
        freqs = np.linspace(0, 25, 100)
        snl = SpectrumEstimate(freqs, np.full(100, 1.1), np.zeros(100))
        elec = SpectrumEstimate(freqs, np.full(100, 0.1), np.zeros(100))
        out = calibrate(elec, snl, elec)
        assert out.clipped
        assert np.all(out.psd > 0)
        assert np.all(out.psd <= 1e-15)

    def test_snl_below_floor_rejected(self):
        freqs = np.linspace(0, 25, 100)
        snl = SpectrumEstimate(freqs, np.full(100, 0.05), np.zeros(100))
        elec = SpectrumEstimate(freqs, np.full(100, 0.1), np.zeros(100))
        with pytest.raises(ValueError, match="calibration"):
            calibrate(snl, snl, elec)

    def test_mismatched_grids_rejected(self):
        a = SpectrumEstimate(np.linspace(0, 25, 100), np.ones(100), np.zeros(100))
        b = SpectrumEstimate(np.linspace(0, 50, 100), np.ones(100), np.zeros(100))
        with pytest.raises(ValueError, match="grid"):
            calibrate(a, a, b)

    def test_recovers_injected_flat_level(self):
        # -3.47 dB injected model with the SNL 10 dB above the electronic floor
        target_db = -3.47
        acq = AcquisitionParams(
            sample_rate_msps=50.0, samples_per_round=8192, rounds=400,
            band_center_mhz=10.0, band_width_mhz=6.0, rng_seed=21,
        )
        floor = 0.1
        signal = simulate_spectrum(NoiseModel(flat(undb(target_db)), floor), acq, stream=10)
        snl = simulate_spectrum(NoiseModel(flat(1.0), floor), acq, stream=11)
        elec = simulate_spectrum(NoiseModel(None, floor), acq, stream=12)
        corrected = calibrate(signal, snl, elec)
        got_db = 10 * np.log10(band_power(corrected, 10.0, 6.0))
        assert got_db == pytest.approx(target_db, abs=0.1)

    def test_recovers_squeezed_branch_model(self):
        # band value at 1.55 MHz within 0.1 dB of the analytic -3.177 dB point
        acq = AcquisitionParams(
            sample_rate_msps=50.0, samples_per_round=50_000, rounds=200,
            band_center_mhz=1.55, band_width_mhz=0.1, rng_seed=8,
        )
        cfg = ScenarioConfig(
            name="direct-0.708",
            description="source read out at overall efficiency 0.708",
            chain=(SourceSpec(), HdSpec(0.0, (0.0,), (1.55,), np.deg2rad(6.0), 0.708)),
            pump_sweep_mw=(450.0,),
            acquisition=acq,
        )
        est = simulate_spectrum(NoiseModel(mc_target_psd(cfg, 0.0), electronic_floor=0.0), acq)
        got_db = 10 * np.log10(band_power(est, 1.55, 0.1))
        assert got_db == pytest.approx(-3.1773469774916565, abs=0.1)


class TestCsv:
    def test_round_trip_is_bit_exact(self):
        est = simulate_spectrum(NoiseModel(flat(0.9), 0.1), SMALL)
        text = spectrum_to_csv(est)
        parsed = spectrum_from_csv(text)
        assert np.array_equal(parsed.freqs_mhz, est.freqs_mhz)
        assert np.array_equal(parsed.psd, est.psd)
        assert np.array_equal(parsed.stderr, est.stderr)
        assert spectrum_to_csv(parsed) == text

    def test_rows_match_per_bin_formatting(self):
        est = simulate_spectrum(NoiseModel(lorentzian, 0.1, TONE), BEAT)
        psd = est.psd.copy()
        psd[[1, 2]] = 0.0, -1.0
        est = SpectrumEstimate(est.freqs_mhz, psd, est.stderr)
        expected = [
            f"{float(freq)!r},{float(p)!r},{float(err)!r}"
            for freq, p, err in zip(est.freqs_mhz, est.psd, est.stderr)
        ]
        assert spectrum_to_csv(est).splitlines()[1:] == expected

    def test_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            spectrum_from_csv("nope\n1,2,3,4\n")

    def test_zero_and_negative_psd_round_trip(self):
        est = SpectrumEstimate(np.array([0.0, 1.0, 2.0]), np.array([0.0, -0.0, -1.5]), np.zeros(3))
        text = spectrum_to_csv(est)
        assert text.splitlines() == [
            "freq_mhz,psd_linear,stderr", "0.0,0.0,0.0", "1.0,-0.0,0.0", "2.0,-1.5,0.0"
        ]
        parsed = spectrum_from_csv(text)
        assert np.array_equal(parsed.psd, est.psd)
        assert np.array_equal(np.signbit(parsed.psd), np.signbit(est.psd))

    def test_reads_four_column_files_of_earlier_versions(self):
        # Written by spectrum_to_csv while it still wrote the derived psd_db column.
        text = (
            "freq_mhz,psd_linear,psd_db,stderr\n0.0,0.0,-inf,inf\n"
            "0.061,0.3333333333333333,-4.771212547196624,nan\n"
            "0.122,-2.5e-17,-inf,0.1\n0.183,1e+300,3000.0,0.0\n"
        )
        parsed = spectrum_from_csv(text)
        assert np.array_equal(parsed.freqs_mhz, [0.0, 0.061, 0.122, 0.183])
        assert np.array_equal(parsed.psd, [0.0, 1 / 3, -2.5e-17, 1e300])
        assert np.array_equal(parsed.stderr, [np.inf, np.nan, 0.1, 0.0], equal_nan=True)

    def test_columns_found_by_header_name(self):
        parsed = spectrum_from_csv("stderr,note,freq_mhz,psd_linear\n0.5,a,1.0,2.0\n0.25,b,1.5,3.0\n")
        assert np.array_equal(parsed.freqs_mhz, [1.0, 1.5])
        assert np.array_equal(parsed.psd, [2.0, 3.0])
        assert np.array_equal(parsed.stderr, [0.5, 0.25])
        with pytest.raises(ValueError, match="header"):
            spectrum_from_csv("freq_mhz,psd_linear\n1.0,2.0\n")

    @pytest.mark.parametrize("row", ["1.0,2.0", "1.0,2.0,0.1,7", "1.0,x,0.1"])
    def test_bad_row_names_its_line(self, row):
        text = f"freq_mhz,psd_linear,stderr\n0.5,1.0,0.1\n{row}\n"
        with pytest.raises(ValueError, match="line 3"):
            spectrum_from_csv(text)


# Where the text of the CSV writer's fast formatter and repr part ways (at
# 1e-4 and 1e16), and values that only repr formats.
BOUNDARY_VALUES = tuple(float(x) for x in (
    1e-4, np.nextafter(1e-4, 0), 1e-5, 1e16, np.nextafter(1e16, 0), 5e-324, -0.0, 1e22,
))
boundary = st.sampled_from(BOUNDARY_VALUES)
any_float = (
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | boundary | boundary.map(lambda x: -x)
)


class TestCsvText:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(any_float, any_float, any_float), min_size=1, max_size=40))
    def test_export_text_is_repr_cell_by_cell(self, rows):
        est = SpectrumEstimate(*(np.array(column) for column in zip(*rows)))
        assert spectrum_to_csv(est).splitlines()[1:] == per_cell_rows(est)

    def test_boundary_values_export_as_repr(self):
        values = np.array([sign * x for x in BOUNDARY_VALUES for sign in (1.0, -1.0)])
        est = SpectrumEstimate(values, np.roll(values, 1), np.roll(values, 2))
        assert spectrum_to_csv(est).splitlines()[1:] == per_cell_rows(est)

    def test_strided_columns_export_as_their_values(self):
        est = simulate_spectrum(NoiseModel(lorentzian, 0.1, TONE), BEAT)
        strided = SpectrumEstimate(est.freqs_mhz[::2], est.psd[::2], est.stderr[::2])
        assert not strided.psd.flags.c_contiguous
        assert spectrum_to_csv(strided).splitlines()[1:] == per_cell_rows(strided)


# Runs in a child interpreter, so that no earlier test has loaded orjson.
LAZY_IMPORT_PROBE = """
import sys
from dataclasses import replace
sys.path.insert(0, 'src')
from sqztune import SpectrumEstimate, get_scenario, run_scenario, spectrum_to_csv, sweep
cfg = get_scenario('fig4a')
run_scenario(cfg, mode='analytic')
acq = replace(cfg.acquisition, samples_per_round=4096, rounds=16, band_width_mhz=0.4)
sweep(replace(cfg, acquisition=acq), 'pump_mw', [300.0, 450.0], mode='both', seed=3)
print('orjson' in sys.modules)
spectrum_to_csv(SpectrumEstimate([0.0, 1.0], [2.0, 3.0], [0.0, 0.5]))
print('orjson' in sys.modules)
"""


def test_only_the_csv_writer_loads_orjson():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-B", "-c", LAZY_IMPORT_PROBE], cwd=root, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


class TestSpectraWriter:
    def test_multi_spectrum_write_matches_single_writes(self, tmp_path, monkeypatch):
        # At 5 rows a block, BEAT's 5001 bins span 1001 formatting blocks.
        monkeypatch.setattr(timeseries, "_CSV_BLOCK", 5)
        est = simulate_spectrum(NoiseModel(lorentzian, 0.1, TONE), BEAT)
        zeroed = est.psd.copy()
        zeroed[[7, 3000]] = 0.0
        signed = zeroed.copy()
        signed[3000] = -0.0
        err = est.stderr.copy()
        err[[0, 2047, 2048]] = np.inf, np.nan, -np.inf
        spectra = [
            est,
            SpectrumEstimate(est.freqs_mhz, zeroed, err),
            SpectrumEstimate(est.freqs_mhz, zeroed.copy(), err.copy()),  # equal bit for bit
            SpectrumEstimate(est.freqs_mhz, signed, err),  # differs only by a -0.0
            SpectrumEstimate(est.freqs_mhz, est.stderr, est.psd),  # columns swapped
        ]
        paths = [tmp_path / f"spectrum{i}.csv" for i in range(len(spectra))]
        write_spectra_csv(list(zip(spectra, paths)))
        for spec, path in zip(spectra, paths):
            assert path.read_bytes() == spectrum_to_csv(spec).encode()
            assert path.read_text().splitlines()[1:] == per_cell_rows(spec)
        row = f"{float(est.freqs_mhz[3000])!r},{{}},{float(err[3000])!r}"
        assert paths[2].read_text().splitlines()[3001] == row.format("0.0")
        assert paths[3].read_text().splitlines()[3001] == row.format("-0.0")

    def test_more_spectra_than_open_file_limit(self, tmp_path, monkeypatch):
        # The files are written one at a time, however many there are.
        est = simulate_spectrum(NoiseModel(flat(0.9), 0.1), SMALL)
        spectra = [
            SpectrumEstimate(est.freqs_mhz, est.psd * (i + 1), est.stderr) for i in range(67)
        ]
        paths = [tmp_path / f"spectrum{i}.csv" for i in range(len(spectra))]
        live, most = set(), [0]

        @contextlib.contextmanager
        def counting_open(path, mode):
            with open(path, mode) as fh:
                live.add(path)
                most[0] = max(most[0], len(live))
                yield fh
            live.discard(path)

        monkeypatch.setattr(timeseries, "open", counting_open, raising=False)
        write_spectra_csv(list(zip(spectra, paths)))
        assert most[0] == 1
        for spec, path in zip(spectra, paths):
            assert path.read_bytes() == spectrum_to_csv(spec).encode()

    def test_block_edges(self, tmp_path, monkeypatch):
        # Three blocks of 5, 5 and 1 rows.  Cells that repr formats are the
        # first and last cells of every block, and -0.0 ends the second
        # block's psd where 0.0 starts the third's.
        monkeypatch.setattr(timeseries, "_CSV_BLOCK", 5)
        freqs = np.arange(11) * 0.25
        psd = np.linspace(0.5, 3.0, 11)
        err = np.full(11, 0.125)
        freqs[[0, 5, 10]] = 1e-05, np.inf, -1e-05
        err[[4, 9, 10]] = np.nan, 1e16, -np.inf
        psd[[9, 10]] = -0.0, 0.0
        est = SpectrumEstimate(freqs, psd, err)
        rows = per_cell_rows(est)
        assert rows[0].startswith("1e-05,") and rows[4].endswith(",nan")
        assert rows[9].endswith(",-0.0,1e+16") and rows[10] == "-1e-05,0.0,-inf"
        text = spectrum_to_csv(est)
        assert text == "\n".join(["freq_mhz,psd_linear,stderr", *rows]) + "\n"
        write_spectra_csv([(est, tmp_path / "edges.csv")])
        assert (tmp_path / "edges.csv").read_bytes() == text.encode()

    def test_spectra_with_equal_bytes_are_formatted_once(self, tmp_path, monkeypatch):
        # Equal values are not enough: -0.0 and 0.0, a NaN and a number, or
        # two NaN payloads are different bytes, and each such spectrum gets
        # its own formatting (two NaN payloads have the same text).
        est = simulate_spectrum(NoiseModel(lorentzian, 0.1, TONE), BEAT)
        psd = est.psd.copy()
        psd[[7, 9]] = np.nan, 0.0
        signed, numbered, payload = psd.copy(), psd.copy(), psd.copy()
        signed[9] = -0.0
        numbered[7] = 1.5
        payload[7] = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
        assert payload.tobytes() != psd.tobytes()
        spectra = [SpectrumEstimate(est.freqs_mhz, column, est.stderr)
                   for column in (psd, psd.copy(), signed, numbered, payload)]
        formatted = []
        csv_blocks = timeseries._csv_blocks

        def recording(spec):
            formatted.append(spec)
            return csv_blocks(spec)

        monkeypatch.setattr(timeseries, "_csv_blocks", recording)
        paths = [tmp_path / f"spectrum{i}.csv" for i in range(len(spectra))]
        write_spectra_csv(list(zip(spectra, paths)))
        ids = [id(spec) for spec in spectra]
        assert [ids.index(id(spec)) for spec in formatted] == [0, 2, 3, 4]
        for spec, path in zip(spectra, paths):
            assert path.read_bytes() == spectrum_to_csv(spec).encode()
        rows = [path.read_text().splitlines()[8:11] for path in paths]
        assert rows[1] == rows[0] and rows[4] == rows[0]
        assert rows[2][2] != rows[0][2] and rows[3][0] != rows[0][0]

    def test_rejects_two_spectra_for_one_file(self, tmp_path):
        est = simulate_spectrum(NoiseModel(flat(0.9), 0.1), SMALL)
        with pytest.raises(ValueError, match="file of its own"):
            write_spectra_csv([(est, tmp_path / "a.csv"), (est, tmp_path / "." / "a.csv")])
        assert not list(tmp_path.iterdir())

    def test_rejects_spectra_on_different_grids(self, tmp_path):
        a = SpectrumEstimate(np.array([0.0, 1.0]), np.ones(2), np.zeros(2))
        b = SpectrumEstimate(np.array([0.0, 2.0]), np.ones(2), np.zeros(2))
        with pytest.raises(ValueError, match="grid"):
            write_spectra_csv([(a, tmp_path / "a.csv"), (b, tmp_path / "b.csv")])
        assert not list(tmp_path.iterdir())
