"""
Monte-Carlo photocurrent synthesis and periodogram-averaged spectral
estimation, mirroring the acquisition pipeline of a sampling scope behind a
balanced detector: repeated fixed-length records, plain FFT periodograms
averaged over rounds, band integration, and shot-noise / electronic-noise
calibration.

Conventions: PSD values are per-frequency-bin in SNL units, so a flat PSD of
1 is white noise of unit sample variance and the estimator is directly
comparable to the analytic noise-power curves.  Synthesis draws independent
Gaussian spectral bins with Hermitian symmetry and amplitude sqrt(PSD),
giving the target spectrum exactly in expectation with no filter transient.

Each bin k of a round is drawn in polar form, z_k = sqrt(2 w_k) e^{i phi_k}:
its power w_k = |z_k|^2 / 2 of a unit complex Gaussian is Exp(1) (the
Box-Muller radius) and its phase is uniform.  A round reads its Philox
stream as uniform doubles u_j, one 64-bit word each, at fixed positions on
the grid of m = n/2 + 1 bins:

- words 0 .. m-1: w_k = -log1p(-u_k);
- words m and m+1: the phases of the real DC and Nyquist bins, whose value
  is re = sqrt(2 w) cos(phi), so their power is re^2 = 2 w cos^2(phi);
- words m+2 .. 2m+1: the phase of interior bin k at word m+2+k (the words
  of k = 0 and k = m-1 are unused).

A tone-free spectrum needs only w, so it reads the first m+2 words; the
interior phases are read only when a model with interference tones shares
the round.  Bin k's words sit at fixed counter offsets of the stream.

A range of bins k0 .. k1-1 is read by those offsets.  Philox makes its words
four per counter block, so a run of words from word j on is read by setting
the counter to (j // 4, r, s, 0) with an empty buffer and dropping j % 4
words.  A round reads the range's power words k0 .. k1-1, the DC or Nyquist
phase word (m or m+1) when the range holds bin 0 or bin m-1, and, for a
toned round, the phase words m+2+k0 .. m+2+k1-1.  Every bin gets the same
words as in a whole-grid read, so its values are the same bit for bit; the
whole grid is the range 0 .. m-1, whose words are the stream's first ones.

Round r of stream s under seed S is the window of ``Philox(key=S)`` that
starts at counter (0, r, s, 0): the seed is the 128-bit key, so seeds lie in
[0, 2**128), and the stream and round are counter words, so streams lie in
[0, 2**64).  A round reads fewer than 2**64 words, so no two rounds or
streams share a counter.  :func:`synthesize_round`, the reference path,
opens that generator for its round and reads it from the start;
:func:`simulate_spectra` reads every round through :func:`_read_rounds`,
which keys one Philox per stream and sets its counter at each run.  Either
way every round reads the same words: the draw map above does not depend on
which path reads it.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.typing import NDArray

# Load-time bounds, so that every accepted acquisition runs: a whole-grid array
# holds samples_per_round // 2 + 1 bins, and a record stream draws about
# samples_per_round words per round.  The builtins sit 84x and 43x below them.
MAX_SAMPLES_PER_ROUND = 2**22
MAX_DRAWS_PER_STREAM = 2**30
# A seed is the 128-bit Philox key of every round (see the module docstring).
MAX_SEED = 2**128
# Streams and rounds are 64-bit words of the Philox counter.
_COUNTER_WORD = 2**64
# 1 THz of sampling, far beyond any scope.  The Monte-Carlo targets read the
# source Lorentzian up to the Nyquist frequency, which must stay within its
# range (see optics_components.MIN_BANDWIDTH_MHZ).
MAX_SAMPLE_RATE_MSPS = 1e6


@dataclass(frozen=True)
class AcquisitionParams:
    """Scope acquisition settings.

    Defaults follow the sideband measurements: 50 MS/s, 50k samples per
    round, 500 rounds, 0.1 MHz integration bandwidth.  The beat measurement
    raises the rate to 250 MS/s.
    """

    sample_rate_msps: float = 50.0
    samples_per_round: int = 50_000
    rounds: int = 500
    band_center_mhz: float = 1.55
    band_width_mhz: float = 0.1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("samples_per_round", "rounds", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"acquisition {name} must be an integer, got {value!r}")
        for name in ("sample_rate_msps", "band_center_mhz", "band_width_mhz"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"acquisition {name} must be a finite number, got {value!r}")
        if not 0 < self.sample_rate_msps <= MAX_SAMPLE_RATE_MSPS:
            raise ValueError(
                f"acquisition sample_rate_msps must be in (0, {MAX_SAMPLE_RATE_MSPS:g}], "
                f"got {self.sample_rate_msps!r}"
            )
        if self.samples_per_round < 2 or self.samples_per_round % 2:
            raise ValueError("samples per round must be an even count >= 2")
        if self.rounds < 1:
            raise ValueError("at least one round required")
        if self.samples_per_round > MAX_SAMPLES_PER_ROUND:
            raise ValueError(
                f"acquisition samples_per_round {self.samples_per_round} exceeds "
                f"MAX_SAMPLES_PER_ROUND = {MAX_SAMPLES_PER_ROUND} (whole-grid arrays)"
            )
        if int(self.samples_per_round) * int(self.rounds) > MAX_DRAWS_PER_STREAM:  # no int64 wrap
            raise ValueError(
                f"acquisition rounds {self.rounds} x {self.samples_per_round} samples exceeds "
                f"MAX_DRAWS_PER_STREAM = {MAX_DRAWS_PER_STREAM} (draws per stream)"
            )
        if self.band_width_mhz <= 0:
            raise ValueError("band width must be positive")
        if not 0 <= self.rng_seed < MAX_SEED:
            raise ValueError(f"acquisition rng_seed must be in [0, 2**128), got {self.rng_seed}")

    @property
    def bin_spacing_mhz(self) -> float:
        return self.sample_rate_msps / self.samples_per_round

    @property
    def grid_mhz(self) -> NDArray[np.float64]:
        return self.grid_range_mhz(0, self.samples_per_round // 2 + 1)

    def grid_range_mhz(self, k0: int, k1: int) -> NDArray[np.float64]:
        """Frequencies of grid bins k0 .. k1 - 1, by ``rfftfreq``'s own arithmetic."""
        return np.arange(k0, k1) * (1.0 / (self.samples_per_round * (1.0 / self.sample_rate_msps)))


PsdFunction = Callable[[NDArray[np.float64]], NDArray[np.float64]]


@dataclass(frozen=True)
class NoiseModel:
    """Target spectrum of one recorded trace.

    ``psd`` maps analysis frequency (MHz) to the optical noise power in SNL
    units (None = no optical signal); ``electronic_floor`` is a flat detector
    noise floor added to every trace; ``interference_tones`` are
    deterministic sinusoids given as (frequency MHz, peak PSD value).
    """

    psd: PsdFunction | None = None
    electronic_floor: float = 0.1
    interference_tones: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not np.isfinite(self.electronic_floor) or self.electronic_floor < 0:
            raise ValueError("electronic noise floor must be finite and non-negative")
        for freq, power in self.interference_tones:
            if not np.isfinite([freq, power]).all() or power < 0:
                raise ValueError(f"tone ({freq} MHz, {power}) needs finite values and power >= 0")

    def target_psd(self, freqs_mhz: NDArray[np.float64]) -> NDArray[np.float64]:
        """Stochastic part of the spectrum (optical + floor, without tones)."""
        total = np.full(freqs_mhz.shape, float(self.electronic_floor))
        if self.psd is not None:
            optical = np.asarray(self.psd(freqs_mhz), dtype=float)
            if optical.shape != freqs_mhz.shape:
                raise ValueError("psd function must return one value per frequency")
            if np.any(optical < 0):
                raise ValueError("target PSD must be non-negative everywhere")
            total = total + optical
        return total


def _read_rounds(
    seed: int, stream: int, rounds: range, runs: Sequence[tuple[int, int, int]],
    words: NDArray[np.float64],
) -> Iterator[int]:
    """For each round r of ``rounds`` in turn, fill words[lo:hi] with the
    round's uniform doubles from stream word ``start`` on, for each
    (start, lo, hi) of ``runs``, then yield r.

    One Philox, keyed once by ``seed``, serves every run.  It draws its words
    four per counter block, so a run sets the counter to
    (start // 4, r, stream, 0) with an empty buffer and no held 32-bit half
    word, drops start % 4 words and reads the rest.  A round's words thus
    depend on nothing read before it.
    """
    if not 0 <= stream < _COUNTER_WORD:
        raise ValueError("stream must be in [0, 2**64)")
    bitgen = np.random.Philox(key=int(seed))
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    counter = state["state"]["counter"]
    counter[2] = stream
    for r in rounds:
        counter[1] = r
        for start, lo, hi in runs:
            counter[0] = start // 4
            bitgen.state = state
            if start % 4:
                bitgen.random_raw(start % 4)
            rng.random(out=words[lo:hi])
        yield r


def _word_runs(
    k0: int, k1: int, m: int, toned: bool
) -> tuple[list[tuple[int, int, int]], list[int], list[int]]:
    """The (stream word, buffer start, buffer stop) runs a round of bins
    k0 .. k1-1 reads, the positions of the real DC and Nyquist bins among
    them, and the buffer slots of those bins' phase words.

    The buffer holds the nb = k1 - k0 power words, then the DC and the
    Nyquist phase slots, then (toned rounds) the nb interior phase words, so
    on the whole grid it holds the stream's first m+2 or 2m+2 words in order.
    """
    nb = k1 - k0
    runs = [(k0, 0, nb)]
    edges, edge_words = [], []
    if k0 == 0:
        runs.append((m, nb, nb + 1))
        edges.append(0)
        edge_words.append(nb)
    if k1 == m:
        runs.append((m + 1, nb + 1, nb + 2))
        edges.append(nb - 1)
        edge_words.append(nb + 1)
    if toned:
        runs.append((m + 2 + k0, nb + 2, 2 * nb + 2))
    return runs, edges, edge_words


_TWO_PI = 2.0 * np.pi


def _bin_powers(words: NDArray[np.float64], m: int) -> NDArray[np.float64]:
    """The round's first m words turned in place into Exp(1) bin powers
    w = -log1p(-u); returns that view."""
    w = words[:m]
    np.negative(w, out=w)
    np.log1p(w, out=w)
    np.negative(w, out=w)
    return w


def _bins(
    words: NDArray[np.float64], re: NDArray[np.float64], im: NDArray[np.float64],
    edges: list[int], edge_words: list[int],
) -> None:
    """re + i*im = sqrt(2w) e^{i phi} of every bin, from the 2nb+2 words of
    a toned round (see :func:`_word_runs`) after :func:`_bin_powers`.

    ``edges`` are the positions of the real DC and Nyquist bins among the
    nb bins, and ``edge_words`` the buffer slots of their phase words.  One
    trig call per bin: sin(phi) is taken from cos(phi), positive on the
    first half-turn.  The real bins have im = 0.  The words serve as
    scratch: afterwards words[:nb] and words[nb+2:] hold no draws.
    """
    nb = re.size
    w, phase = words[:nb], words[nb + 2:]
    phase[edges] = words[edge_words]
    np.multiply(phase, _TWO_PI, out=re)
    np.cos(re, out=re)
    np.multiply(re, re, out=im)
    np.subtract(1.0, im, out=im)
    np.sqrt(im, out=im)
    np.subtract(0.5, phase, out=phase)
    np.copysign(im, phase, out=im)
    w *= 2.0
    np.sqrt(w, out=w)
    re *= w
    im *= w
    im[edges] = 0.0


def synthesize_round(
    model: NoiseModel, acq: AcquisitionParams, round_index: int, stream: int = 0
) -> NDArray[np.float64]:
    """One simulated voltage record with the model's spectrum.

    Fully reproducible: the trace is a pure function of
    (acq.rng_seed, stream, round_index); its bins are drawn from the word
    layout in the module docstring.
    """
    if not (0 <= round_index < _COUNTER_WORD and 0 <= stream < _COUNTER_WORD):
        raise ValueError("round index and stream must be in [0, 2**64)")
    n = acq.samples_per_round
    m = n // 2 + 1
    target = model.target_psd(acq.grid_mhz)

    counter = np.array([0, round_index, stream, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=int(acq.rng_seed), counter=counter))
    words = rng.random(2 * m + 2)
    re, im = np.empty(m), np.empty(m)
    _bin_powers(words, m)
    _bins(words, re, im, [0, m - 1], [m, m + 1])
    spectrum = np.sqrt(target * n / 2.0) * (re + 1j * im)
    # DC and Nyquist bins of a real signal are real-valued.
    spectrum[0] = np.sqrt(target[0] * n) * re[0]
    spectrum[-1] = np.sqrt(target[-1] * n) * re[-1]
    return _add_tones(np.fft.irfft(spectrum, n=n), model, acq)


def _add_tones(
    trace: NDArray[np.float64], model: NoiseModel, acq: AcquisitionParams
) -> NDArray[np.float64]:
    """``trace`` plus the model's deterministic interference tones."""
    n = acq.samples_per_round
    t = np.arange(n) / acq.sample_rate_msps
    nyquist = acq.sample_rate_msps / 2.0
    for freq, power in model.interference_tones:
        if freq >= nyquist:
            raise ValueError(f"tone at {freq} MHz exceeds Nyquist {nyquist} MHz")
        trace = trace + 2.0 * np.sqrt(power / n) * np.cos(2.0 * np.pi * freq * t)
    return trace


@dataclass(frozen=True)
class SpectrumEstimate:
    """Averaged one-sided power spectrum.

    ``psd`` holds the two-sided density values on the non-negative grid;
    ``stderr`` is the per-bin standard error over rounds.
    """

    freqs_mhz: NDArray[np.float64]
    psd: NDArray[np.float64]
    stderr: NDArray[np.float64]
    clipped: bool = False

    def __post_init__(self) -> None:
        freqs = np.asarray(self.freqs_mhz, dtype=float)
        psd = np.asarray(self.psd, dtype=float)
        stderr = np.asarray(self.stderr, dtype=float)
        if not (freqs.shape == psd.shape == stderr.shape) or freqs.ndim != 1:
            raise ValueError("freqs, psd and stderr must be 1-d arrays of equal length")
        for arr in (freqs, psd, stderr):
            arr.flags.writeable = False
        object.__setattr__(self, "freqs_mhz", freqs)
        object.__setattr__(self, "psd", psd)
        object.__setattr__(self, "stderr", stderr)


def periodogram(trace: NDArray[np.float64]) -> NDArray[np.float64]:
    """Rectangular-window periodogram |FFT|^2 / N on the one-sided grid."""
    spectrum = np.fft.rfft(np.asarray(trace, dtype=float))
    return np.abs(spectrum) ** 2 / trace.size


def _estimate(freqs: NDArray[np.float64], rounds: int, total, total_sq) -> SpectrumEstimate:
    """Mean and standard error from per-bin sums of periodograms over rounds."""
    mean = total / rounds
    if rounds > 1:
        var = np.maximum(total_sq - total * total / rounds, 0.0) / (rounds - 1)
        stderr = np.sqrt(var / rounds)
    else:
        stderr = np.zeros_like(mean)
    return SpectrumEstimate(freqs, mean, stderr)


def simulate_spectra(
    models: Sequence[NoiseModel], acq: AcquisitionParams, stream: int = 0,
    bins: slice = slice(None),
) -> list[SpectrumEstimate]:
    """Averaged periodograms of several models that share one stream's draws.

    Round r of each model is the record ``synthesize_round(model, acq, r,
    stream)``, but its periodogram is built from the drawn bins directly.
    Without tones it is target * w, with w the Exp(1) bin powers (2 w
    cos^2(phi) at DC and Nyquist; see the module docstring), so a round of
    tone-free models reads one word per bin, reduces them once and the sums
    are scaled by each target PSD at the end.  A model with tones needs the
    bins z = sqrt(2w) e^{i phi} themselves: its periodogram is
    |a*z + T|^2 / n with bin amplitudes a = sqrt(target * n / 2) and the tone
    spectrum T = rfft(tones), and the round also reads each bin's phase word.
    Either way the result equals ``periodogram`` of the record up to the
    rounding of the irfft/rfft round trip, and a tone-free model's spectrum
    is the same bit for bit whether or not a model with tones shares the call.

    ``bins`` selects a range of the m = n/2 + 1 grid bins (default: all).
    Each round reads only that range's words, setting the Philox counter at
    each run of them (see :func:`_read_rounds`), and the estimates cover
    only those bins; they equal the whole-grid estimates' slice bit for bit.
    Rounds stream through preallocated buffers in a fixed order: memory
    stays flat in acq.rounds and the result is deterministic; no models read
    no round.
    """
    n = acq.samples_per_round
    m = n // 2 + 1
    k0, k1, step = bins.indices(m)
    if step != 1 or k1 <= k0:
        raise ValueError(f"bins must be a non-empty, unit-step range of the {m} grid bins")
    if not models:
        return []
    nb = k1 - k0
    freqs = acq.grid_range_mhz(k0, k1)
    targets = [model.target_psd(freqs) for model in models]
    runs, edges, edge_words = _word_runs(
        k0, k1, m, any(model.interference_tones for model in models)
    )
    w_sum, w_sumsq = np.zeros(nb), np.zeros(nb)
    # Models with tones: index -> (bin amplitude, T.real, T.imag, periodogram
    # sum, sum of squares).  DC and Nyquist bins are real-valued: their
    # amplitude is sqrt(target * n), and _bins sets their im to 0.
    toned = {}
    for i, (model, target) in enumerate(zip(models, targets)):
        if model.interference_tones:
            tone = np.fft.rfft(_add_tones(np.zeros(n), model, acq))[k0:k1]
            amp = np.sqrt(target * n / 2.0)
            amp[edges] = np.sqrt(target[edges] * n)
            toned[i] = (amp, tone.real.copy(), tone.imag.copy(), np.zeros(nb), np.zeros(nb))
    tone_free = len(toned) < len(models)
    words = np.empty(2 * nb + 2 if toned else nb + 2)
    # re is also the tone-free models' scratch, before _bins fills it; after
    # _bins, the two halves of words are the toned models' scratch.
    re = np.empty(nb)
    im = np.empty(nb) if toned else None
    gram, part = words[:nb], words[nb + 2:]

    for _ in _read_rounds(acq.rng_seed, stream, range(acq.rounds), runs, words):
        w = _bin_powers(words, nb)
        if tone_free:
            np.copyto(re, w)
            if edges:
                # The real DC and Nyquist bins have power re^2 = 2 w cos^2(phi).
                cos = np.cos(_TWO_PI * words[edge_words])
                re[edges] *= 2.0 * cos * cos
            w_sum += re
            re *= re
            w_sumsq += re
        if not toned:
            continue
        _bins(words, re, im, edges, edge_words)
        for amp, t_re, t_im, total, total_sq in toned.values():
            np.multiply(amp, re, out=gram)
            gram += t_re
            gram *= gram
            np.multiply(amp, im, out=part)
            part += t_im
            part *= part
            gram += part
            gram /= n
            total += gram
            gram *= gram
            total_sq += gram

    return [
        _estimate(freqs, acq.rounds, *toned[i][3:]) if i in toned
        else _estimate(freqs, acq.rounds, target * w_sum, target * target * w_sumsq)
        for i, target in enumerate(targets)
    ]


def simulate_spectrum(
    model: NoiseModel, acq: AcquisitionParams, stream: int = 0, bins: slice = slice(None)
) -> SpectrumEstimate:
    """Synthesize acq.rounds records and average their periodograms.

    Reproduces the mean periodogram of ``synthesize_round`` records of the
    same (seed, stream) without forming them; see :func:`simulate_spectra`.
    """
    return simulate_spectra([model], acq, stream, bins)[0]


def _band_edges(center_mhz: float, width_mhz: float) -> tuple[float, float]:
    """Lowest and highest bin frequency a band integrates, with rounding slack."""
    pad = 1e-9 * max(1.0, abs(center_mhz))
    return center_mhz - width_mhz / 2.0 - pad, center_mhz + width_mhz / 2.0 + pad


def _band_mask(freqs_mhz: NDArray[np.float64], center_mhz: float, width_mhz: float):
    lo, hi = _band_edges(center_mhz, width_mhz)
    mask = (freqs_mhz >= lo) & (freqs_mhz <= hi)
    if not np.any(mask):
        raise ValueError(f"no spectrum bins inside {center_mhz}+-{width_mhz/2} MHz")
    return mask


def band_slice(acq: AcquisitionParams, centers_mhz: Sequence[float]) -> slice:
    """The smallest range of grid bins that holds every bin :func:`band_power`
    integrates over the bands ``centers_mhz`` +- acq.band_width_mhz / 2.

    Each band's mask is taken over a window of its bins with one bin of
    margin on each side, not over the whole grid.
    """
    m = acq.samples_per_round // 2 + 1
    first, last = m, -1
    for center in centers_mhz:
        lo, hi = (edge / acq.bin_spacing_mhz for edge in _band_edges(center, acq.band_width_mhz))
        k0 = k1 = 0  # a non-finite band gets an empty window
        if math.isfinite(lo) and math.isfinite(hi):
            k0 = min(max(math.floor(lo) - 1, 0), m)
            k1 = min(max(math.ceil(hi) + 2, k0), m)
        inside = k0 + np.flatnonzero(
            _band_mask(acq.grid_range_mhz(k0, k1), center, acq.band_width_mhz)
        )
        first, last = min(first, int(inside[0])), max(last, int(inside[-1]))
    return slice(first, last + 1)


def band_power(spec: SpectrumEstimate, center_mhz: float, width_mhz: float) -> float:
    """Mean PSD over the bins whose centers fall inside the band."""
    return float(spec.psd[_band_mask(spec.freqs_mhz, center_mhz, width_mhz)].mean())


def band_power_stderr(spec: SpectrumEstimate, center_mhz: float, width_mhz: float) -> float:
    """Standard error of :func:`band_power` assuming independent bins."""
    err = spec.stderr[_band_mask(spec.freqs_mhz, center_mhz, width_mhz)]
    return float(np.sqrt(np.sum(err**2)) / err.size)


def _require_common_grid(*spectra: SpectrumEstimate) -> None:
    base = spectra[0].freqs_mhz
    for other in spectra[1:]:
        if other.freqs_mhz.shape != base.shape or not np.array_equal(other.freqs_mhz, base):
            raise ValueError("spectra must share an identical frequency grid")


_CLIP_FLOOR = 1e-15


def calibrate(
    signal: SpectrumEstimate,
    snl: SpectrumEstimate,
    electronic: SpectrumEstimate,
) -> SpectrumEstimate:
    """Electronic-noise-corrected, SNL-normalized spectrum.

    corrected = (signal - electronic) / (snl - electronic), bin-wise.  Bins
    where the corrected value is not above ``_CLIP_FLOOR`` are clipped to it
    and the estimate is flagged ``clipped`` (their dB value would diverge).
    """
    _require_common_grid(signal, snl, electronic)
    denom = snl.psd - electronic.psd
    if np.any(denom <= 0):
        bad = int(np.sum(denom <= 0))
        raise ValueError(
            f"shot-noise level does not exceed the electronic floor in {bad} bins; "
            "calibration is undefined"
        )
    numer = signal.psd - electronic.psd
    corrected = numer / denom
    numer_err = np.sqrt(signal.stderr**2 + electronic.stderr**2)
    denom_err = np.sqrt(snl.stderr**2 + electronic.stderr**2)
    stderr = np.sqrt((numer_err / denom) ** 2 + (numer * denom_err / denom**2) ** 2)
    clipped = bool(np.any(corrected <= _CLIP_FLOOR))
    corrected = np.maximum(corrected, _CLIP_FLOOR)
    return SpectrumEstimate(signal.freqs_mhz, corrected, stderr, clipped=clipped)


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

CSV_HEADER = "freq_mhz,psd_linear,stderr"
_CSV_COLUMNS = tuple(CSV_HEADER.split(","))
_CSV_BLOCK = 8192  # rows per orjson call; 1024-row blocks and whole files were slower


def _csv_blocks(spec: SpectrumEstimate) -> Iterator[bytes]:
    """The data rows of a spectrum's CSV, ``_CSV_BLOCK`` rows at a time, each
    value as its ``repr`` text and each row ended by ``\\n``.

    A block's rows are copied into one (k, 3) array, whose values one orjson
    call writes as ``[v,v,...]``.  orjson writes the shortest round-trip
    digits, as ``repr`` does, and lays them out as ``repr`` does for
    1e-4 <= |x| < 1e16 and for ±0.0.  Every third separator (comma or the
    closing bracket) becomes a row end, in place.  Outside that range orjson
    writes ``0.00001``, ``1e16`` or ``1e-7`` where ``repr`` writes
    ``1e-05``, ``1e+16`` or ``1e-07``, and ``null`` for nan and ±inf, so the
    text of those cells is replaced by their ``repr``.
    """
    # Imported here so that runs which write no spectrum never load it.
    import orjson

    columns = (spec.freqs_mhz, spec.psd, spec.stderr)
    for start in range(0, spec.freqs_mhz.size, _CSV_BLOCK):
        rows = np.stack([column[start:start + _CSV_BLOCK] for column in columns], axis=1)
        values = rows.ravel()
        text = bytearray(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY))
        chars = np.frombuffer(text, dtype=np.uint8)
        # Value i's text lies between separators i and i + 1.
        commas = np.flatnonzero(chars == ord(","))
        seps = np.concatenate(([0], commas, [len(text) - 1]))
        chars[seps[3::3]] = ord("\n")
        magnitude = np.abs(values)
        outside = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (values != 0.0)
        view = memoryview(text)
        pieces = []
        end = 1  # past the opening bracket
        for i in np.flatnonzero(outside).tolist():
            pieces += (view[end:seps[i] + 1], repr(float(values[i])).encode())
            end = seps[i + 1]
        pieces.append(view[end:])
        yield b"".join(pieces)


def write_spectra_csv(items: Sequence[tuple[SpectrumEstimate, str | os.PathLike]]) -> None:
    """Write each (spectrum, path) pair's CSV, header ``freq_mhz,psd_linear,stderr``.

    The spectra must share one frequency grid; otherwise ValueError is raised
    before any file is opened.  The files are written one at a time, each
    equal to :func:`spectrum_to_csv` of its spectrum, with ``\\n`` line ends
    on every platform.
    """
    items = list(items)
    if items:
        _require_common_grid(*(spec for spec, _ in items))
    for spec, path in items:
        with open(path, "wb") as fh:
            fh.write(f"{CSV_HEADER}\n".encode())
            fh.writelines(_csv_blocks(spec))


def spectrum_to_csv(spec: SpectrumEstimate) -> str:
    """CSV text with header ``freq_mhz,psd_linear,stderr``; every value is its
    float ``repr`` text, written by orjson where its text is the same (see
    :func:`_csv_blocks`), so :func:`spectrum_from_csv` reads it back bit for
    bit."""
    return f"{CSV_HEADER}\n" + b"".join(_csv_blocks(spec)).decode()


def spectrum_from_csv(text: str) -> SpectrumEstimate:
    """Parse a spectrum CSV such as :func:`spectrum_to_csv` writes.

    Columns are found by header name, in any order, and other columns are
    ignored, so files with the ``psd_db`` column of earlier versions still
    load.  A row whose field count differs from the header's, or whose
    value does not parse, is a ValueError naming its line.
    """
    lines = [(number, line.strip()) for number, line in enumerate(text.splitlines(), start=1)]
    lines = [(number, line) for number, line in lines if line]
    names = lines[0][1].split(",") if lines else []
    if any(names.count(name) != 1 for name in _CSV_COLUMNS):
        raise ValueError(f"expected a header naming each of {CSV_HEADER!r} once")
    picks = [names.index(name) for name in _CSV_COLUMNS]
    columns: tuple[list[float], ...] = ([], [], [])
    for number, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(names):
            raise ValueError(f"line {number}: {len(fields)} fields, the header has {len(names)}")
        try:
            for values, pick in zip(columns, picks):
                values.append(float(fields[pick]))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    freqs, psd, stderr = (np.array(values, dtype=float) for values in columns)
    return SpectrumEstimate(freqs, psd, stderr)
