"""
Declarative experiment scenarios: a chain of optical elements from the
parametric source to the homodyne detector, reference measurement values
with tolerances, an analytic + Monte-Carlo runner, and parameter sweeps.

Both paths read one pump-independent chain response (:func:`chain_response`),
propagated once per run or sweep and detected once per analysis band.  The
readout is linear in the source's excess noise: the homodyne noise is
1 + eta ((vs - 1) a + (va - 1) b), with gains (a, b) per band and LO phase
(:meth:`DetectedPair.gains`).  The analytic rows take it at the band-centre
source excess, and the Monte-Carlo target spectrum at each grid bin's.

Builtin scenarios (fig4a, fig4b, fig5a, fig5b, fig5c) reproduce the
measured operating points: direct readout of the source state, the pump
sweep, the beat readout of the tuned state with the carrier LO, the tuned
state with the shifted LO, and its pump sweep.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .gaussian_core import GaussianState, ModeLabel
from .homodyne import DetectedPair, db, detect_pair
from .optics_components import (
    SPLIT_NORM_TOL,
    AbiParams,
    OpoParams,
    abi_efficiency,
    apply_abi,
    apply_aom,
    apply_uniform_loss,
    opo_sideband_state,
    opo_variances,
    sideband_pair_state,
)
from .timeseries import (
    AcquisitionParams,
    NoiseModel,
    SpectrumEstimate,
    band_power,
    band_slice,
    calibrate,
    simulate_spectra,
    simulate_spectrum,
)

MODES = ("analytic", "montecarlo", "both")
DEFAULT_SEED = 20260812
_DTH_LOCK = math.radians(6.0)


class ConfigError(ValueError):
    """Invalid scenario configuration; maps to CLI exit code 2."""


# ---------------------------------------------------------------------------
# Chain element descriptions
# ---------------------------------------------------------------------------

def _check_real(owner: str, name: str, value, lo: float = -math.inf, hi: float = math.inf) -> None:
    """Reject a spec field that is not a finite real number in [lo, hi]."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or not lo <= value <= hi
    ):
        bounds = "" if (lo, hi) == (-math.inf, math.inf) else f" in [{lo:g}, {hi:g}]"
        raise ConfigError(f"{owner} {name} must be a finite number{bounds}, got {value!r}")


def _check_distinct(name: str, values, label) -> None:
    """Reject two entries of a config list that print the same output label."""
    if len(values) < 2:
        return
    tags = list(map(label, values))
    if len(set(tags)) == len(tags):
        return
    seen = {}
    for value, tag in zip(values, tags):
        if tag in seen:
            raise ConfigError(
                f"{name} values {seen[tag]!r} and {value!r} share the output label {tag!r}"
            )
        seen[tag] = value


def _check_shift(owner: str, shift_mhz) -> None:
    """Reject a frequency shift that is zero or off the mode-label grid."""
    _check_real(owner, "shift_mhz", shift_mhz)
    if shift_mhz == 0:
        raise ConfigError(f"{owner} shift_mhz must be non-zero")
    try:
        ModeLabel.from_mhz(shift_mhz)
    except ValueError as exc:
        raise ConfigError(f"{owner} shift_mhz: {exc}") from None


@dataclass(frozen=True)
class SourceSpec:
    """Parametric source at the head of the chain (pump set per run)."""

    threshold_mw: float = 980.0
    bandwidth_mhz: float = 15.6
    escape_efficiency: float = 1.0

    def __post_init__(self) -> None:
        for name in ("threshold_mw", "bandwidth_mhz"):
            _check_real("opo", name, getattr(self, name))
            if getattr(self, name) <= 0:
                raise ConfigError(f"opo {name} must be positive")
        _check_real("opo", "escape_efficiency", self.escape_efficiency, 0.0, 1.0)


@dataclass(frozen=True)
class LossSpec:
    """Pure transmission loss with a bookkeeping label."""

    label: str
    efficiency: float

    def __post_init__(self) -> None:
        _check_real("loss", "efficiency", self.efficiency, 0.0, 1.0)


@dataclass(frozen=True)
class AbiSpec:
    """Two-AOM interferometric frequency tuner."""

    shift_mhz: float = 80.0
    zeta: float = 1.0
    visibility: float = 1.0
    phi_rad: float = 0.0

    def __post_init__(self) -> None:
        _check_shift("abi", self.shift_mhz)
        _check_real("abi", "zeta", self.zeta, 0.0, 1.0)
        _check_real("abi", "visibility", self.visibility, 0.0, 1.0)
        _check_real("abi", "phi_rad", self.phi_rad)


@dataclass(frozen=True)
class AomSpec:
    """Single AOM used as a bare (lossy-free) partial frequency shifter."""

    t: float
    r: float
    shift_mhz: float

    def __post_init__(self) -> None:
        _check_real("aom", "t", self.t)
        _check_real("aom", "r", self.r)
        if abs(self.t**2 + self.r**2 - 1.0) > SPLIT_NORM_TOL:
            raise ConfigError("aom splitting coefficients must satisfy t^2 + r^2 = 1")
        _check_shift("aom", self.shift_mhz)


@dataclass(frozen=True)
class HdSpec:
    """Homodyne readout at the end of the chain.

    ``lo_offset_mhz`` selects the LO: 0 for the carrier, or the net tuner
    shift for the shifted LO.  ``analysis_mhz`` lists the electronic analysis
    frequencies at which band powers are reported.
    """

    lo_offset_mhz: float
    thetas_rad: tuple[float, ...]
    analysis_mhz: tuple[float, ...]
    delta_theta_rad: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self) -> None:
        _check_real("hd", "lo_offset_mhz", self.lo_offset_mhz)
        for name in ("thetas_rad", "analysis_mhz"):
            values = getattr(self, name)
            if not isinstance(values, tuple):
                raise ConfigError(f"hd {name} must be a list of numbers, got {values!r}")
            for value in values:
                _check_real("hd", name, value)
        _check_real("hd", "delta_theta_rad", self.delta_theta_rad)
        _check_real("hd", "efficiency", self.efficiency, 0.0, 1.0)


ComponentSpec = Union[SourceSpec, LossSpec, AbiSpec, AomSpec, HdSpec]

_KIND_TO_CLASS = {
    "opo": SourceSpec,
    "loss": LossSpec,
    "abi": AbiSpec,
    "aom": AomSpec,
    "hd": HdSpec,
}
_CLASS_TO_KIND = {cls: kind for kind, cls in _KIND_TO_CLASS.items()}


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    description: str
    chain: tuple[ComponentSpec, ...]
    pump_sweep_mw: tuple[float, ...]
    acquisition: AcquisitionParams
    electronic_floor: float = 0.1
    interference_tones: tuple[tuple[float, float], ...] = ()
    mode: str = "both"
    mc_pump_mw: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # Output files are named after the scenario, inside the output directory.
        if not isinstance(self.name, str) or self.name in ("", ".", "..") or any(
            c in self.name for c in "/\\\0"
        ):
            raise ConfigError(
                f"scenario name must be a plain file name (not empty, '.' or '..'; "
                f"no '/', '\\' or NUL), got {self.name!r}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.chain:
            raise ConfigError("chain must not be empty")
        if not isinstance(self.chain[0], SourceSpec):
            raise ConfigError("chain must start with the parametric source")
        if not isinstance(self.chain[-1], HdSpec):
            raise ConfigError("chain must end with the homodyne readout")
        for element in self.chain[1:-1]:
            if isinstance(element, (SourceSpec, HdSpec)):
                raise ConfigError("source and readout are allowed only at the chain ends")
            if not isinstance(element, (LossSpec, AbiSpec, AomSpec)):
                raise ConfigError(f"unknown chain element {element!r}")
        if sum(isinstance(element, AbiSpec) for element in self.chain) > 1:
            raise ConfigError(
                "cascaded tuners are not supported: the chain may hold at most one abi element"
            )
        if not self.pump_sweep_mw:
            raise ConfigError("at least one pump power required")
        for name in ("pump_sweep_mw", "mc_pump_mw"):
            for value in getattr(self, name) or ():
                _check_real("scenario", name, value, 0.0)
        if self.mc_pump_mw is not None:
            unknown = set(self.mc_pump_mw) - set(self.pump_sweep_mw)
            if unknown:
                raise ConfigError(f"Monte-Carlo pump values {sorted(unknown)} not in the sweep")
        # 1e6 SNL units is 60 dB above shot noise, beyond any detector; the
        # Monte-Carlo sums of squared periodograms overflow near 1e150.
        _check_real("scenario", "electronic_floor", self.electronic_floor, 0.0, 1e6)
        hd = self.hd
        if not hd.thetas_rad:
            raise ConfigError("at least one LO phase required")
        if not hd.analysis_mhz:
            raise ConfigError("at least one analysis frequency required")
        shift = self.total_shift_mhz
        if not (
            math.isclose(hd.lo_offset_mhz, 0.0, abs_tol=1e-9)
            or math.isclose(hd.lo_offset_mhz, shift, abs_tol=1e-9)
        ):
            raise ConfigError(
                f"LO offset {hd.lo_offset_mhz} MHz matches neither the carrier (0) "
                f"nor the net tuner shift ({shift} MHz)"
            )
        nyquist = self.acquisition.sample_rate_msps / 2.0
        for freq, power in self.interference_tones:
            _check_real("interference tone", "frequency_mhz", freq)
            _check_real("interference tone", "power", power, 0.0)
            if freq <= 0:
                raise ConfigError(f"interference tone at {freq} MHz must be above 0 MHz")
            if freq >= nyquist:
                raise ConfigError(
                    f"interference tone at {freq} MHz exceeds the Nyquist frequency {nyquist} MHz"
                )
        half = self.acquisition.band_width_mhz / 2.0
        for f in hd.analysis_mhz:
            if f <= 0:
                raise ConfigError("analysis frequencies must be positive")
            if f + half >= nyquist:
                raise ConfigError(
                    f"analysis band at {f} MHz exceeds the Nyquist frequency {nyquist} MHz"
                )
        deltas = {self._source_detuning(f) for f in hd.analysis_mhz}
        if len(deltas) != 1:
            raise ConfigError(
                "analysis frequencies map to different source sideband detunings "
                f"{sorted(deltas)}; split them into separate scenarios"
            )
        if next(iter(deltas)) <= 0:
            raise ConfigError("analysis frequency coincides with the source carrier")
        # Output file names and row quantities carry these labels, so two
        # values with one label would overwrite each other's spectra and rows.
        _check_distinct("pump_sweep_mw", self.pump_sweep_mw, "{:g}".format)
        _check_distinct("hd analysis_mhz", hd.analysis_mhz, "{:g}".format)
        _check_distinct("hd thetas_rad", hd.thetas_rad, _phase_label)

    @property
    def source(self) -> SourceSpec:
        return self.chain[0]

    @property
    def hd(self) -> HdSpec:
        return self.chain[-1]

    @property
    def total_shift_mhz(self) -> float:
        return sum(e.shift_mhz for e in self.chain if isinstance(e, AbiSpec))

    def _member_detunings(self, analysis_mhz: float) -> tuple[float, float]:
        """Grid-snapped source detunings of the two analysis-pair members."""
        shift = self.total_shift_mhz
        lo = self.hd.lo_offset_mhz
        try:
            return tuple(
                ModeLabel.from_mhz(abs(member - shift)).mhz
                for member in (lo + analysis_mhz, lo - analysis_mhz)
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _source_detuning(self, analysis_mhz: float) -> float:
        """Source sideband detuning feeding the analysis pair at this frequency."""
        return min(self._member_detunings(analysis_mhz))

    @property
    def source_detuning_mhz(self) -> float:
        return self._source_detuning(self.hd.analysis_mhz[0])

    def is_symmetric(self, analysis_mhz: float) -> bool:
        """True when both members of the analysis pair carry the source state."""
        upper, lower = self._member_detunings(analysis_mhz)
        return upper == lower

    @property
    def chain_efficiency_total(self) -> float:
        """Product of every efficiency factor from source escape to detection."""
        eta = self.source.escape_efficiency * self.hd.efficiency
        for element in self.chain[1:-1]:
            if isinstance(element, LossSpec):
                eta *= element.efficiency
            elif isinstance(element, AbiSpec):
                eta *= abi_efficiency(element.zeta, element.visibility)
        return eta


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceEntry:
    scenario: str
    quantity: str
    paper_value_db: float
    tolerance_db: float
    provenance: str


REFERENCE_TABLE: tuple[ReferenceEntry, ...] = (
    ReferenceEntry(
        "fig4a", "squeezing_db@450mW", -3.02, 0.35,
        "measured squeezing of the source state at 450 mW pump; 1.55 MHz band; carrier LO",
    ),
    ReferenceEntry(
        "fig4a", "antisqueezing_db@450mW", 11.64, 0.2,
        "measured antisqueezing of the source state at 450 mW pump; 1.55 MHz band; carrier LO",
    ),
    ReferenceEntry(
        "fig4b", "squeezing_db@270mW", -3.47, 0.35,
        "optimum measured squeezing across the pump sweep; found at 270 mW",
    ),
    ReferenceEntry(
        "fig5a", "beat_db@450mW@78.45MHz@theta90", 4.34, 0.5,
        "beat noise of the tuned state with the carrier LO; lower analysis band",
    ),
    ReferenceEntry(
        "fig5a", "beat_db@450mW@81.55MHz@theta90", 4.34, 0.5,
        "beat noise of the tuned state with the carrier LO; upper analysis band",
    ),
    ReferenceEntry(
        "fig5b", "squeezing_db@450mW", -1.66, 0.35,
        "measured squeezing of the tuned state with the shifted LO at 450 mW pump",
    ),
    ReferenceEntry(
        "fig5b", "antisqueezing_db@450mW", 10.02, 0.2,
        "measured antisqueezing of the tuned state with the shifted LO at 450 mW pump",
    ),
    ReferenceEntry(
        "fig5c", "squeezing_db@270mW", -1.98, 0.35,
        "optimum measured squeezing of the tuned state across the pump sweep; at 270 mW",
    ),
)

_REFERENCE_INDEX = {(e.scenario, e.quantity): e for e in REFERENCE_TABLE}

REFERENCE_CSV_HEADER = ["scenario", "quantity", "paper_value_db", "tolerance_db", "provenance"]


def emit_reference(entries: Sequence[ReferenceEntry] = REFERENCE_TABLE) -> str:
    """Reference table as CSV text (deterministic ordering)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REFERENCE_CSV_HEADER)
    for e in sorted(entries, key=lambda e: (e.scenario, e.quantity)):
        writer.writerow([e.scenario, e.quantity, repr(e.paper_value_db), repr(e.tolerance_db), e.provenance])
    return out.getvalue()


def parse_reference(text: str) -> tuple[ReferenceEntry, ...]:
    """Parse CSV produced by :func:`emit_reference`."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != REFERENCE_CSV_HEADER:
        raise ValueError(f"expected header {REFERENCE_CSV_HEADER}")
    return tuple(
        ReferenceEntry(scn, qty, float(val), float(tol), prov)
        for scn, qty, val, tol, prov in rows[1:]
    )


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResultRow:
    scenario: str
    quantity: str
    pump_mw: float
    theta_rad: float
    analysis_mhz: float
    analytic_linear: float | None
    analytic_db: float | None
    mc_db: float | None
    reference_db: float | None
    tolerance_db: float | None
    passed: bool | None

    @property
    def model_db(self) -> float | None:
        """The analytic value, else the Monte-Carlo one; None when the row has neither."""
        return self.analytic_db if self.analytic_db is not None else self.mc_db


@dataclass(frozen=True)
class ScenarioResult:
    name: str
    mode: str
    seed: int
    rows: tuple[ResultRow, ...]
    spectra: dict[str, SpectrumEstimate]

    @property
    def reference_ok(self) -> bool:
        return all(row.passed is not False for row in self.rows)


def _theta_tag(theta: float) -> str:
    return f"theta{round(math.degrees(theta)):g}"


def _phase_label(theta: float) -> str:
    """The LO phase's tag modulo 180 degrees: the readout is pi-periodic in
    the phase, so two phases with one label give the same rows."""
    return f"theta{round(math.degrees(theta)) % 180:g} (mod 180)"


def _quantity_name(symmetric: bool, pump: float, theta: float, analysis: float) -> str:
    if symmetric:
        if math.isclose(math.cos(theta) ** 2, 1.0, abs_tol=1e-12):
            return f"squeezing_db@{pump:g}mW"
        if math.isclose(math.sin(theta) ** 2, 1.0, abs_tol=1e-12):
            return f"antisqueezing_db@{pump:g}mW"
        return f"noise_db@{pump:g}mW@{_theta_tag(theta)}"
    return f"beat_db@{pump:g}mW@{analysis:g}MHz@{_theta_tag(theta)}"


def _opo_params(cfg: ScenarioConfig, pump: float) -> OpoParams:
    src = cfg.source
    try:
        return OpoParams(pump, src.threshold_mw, src.bandwidth_mhz, src.escape_efficiency)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _propagate(cfg: ScenarioConfig, state: GaussianState) -> GaussianState:
    """``state`` sent through every mid-chain element.

    A tuner or AOM whose shift pairs a mode with a partner that is already
    paired (its mode pairs overlap) is a ConfigError naming the element.
    """
    for position, element in enumerate(cfg.chain[1:-1], start=1):
        if isinstance(element, LossSpec):
            state = apply_uniform_loss(state, element.efficiency)
            continue
        try:
            if isinstance(element, AbiSpec):
                state = apply_abi(
                    state,
                    AbiParams(
                        shift_mhz=element.shift_mhz,
                        zeta=element.zeta,
                        visibility=element.visibility,
                        phi_rad=element.phi_rad,
                    ),
                )
            else:
                state = apply_aom(state, element.t, element.r, element.shift_mhz)
        except ValueError as exc:
            kind = _CLASS_TO_KIND[type(element)]
            raise ConfigError(
                f"chain element {position} ({kind}, shift {element.shift_mhz:g} MHz): {exc}"
            ) from None
    return state


def propagate_chain(cfg: ScenarioConfig, pump_mw: float) -> GaussianState:
    """Source sideband pair at ``pump_mw`` propagated through every mid-chain
    element: the physical state, which :func:`chain_response` stands in for."""
    return _propagate(cfg, opo_sideband_state(_opo_params(cfg, pump_mw), cfg.source_detuning_mhz))


def chain_response(cfg: ScenarioConfig) -> GaussianState:
    """The source sideband pair with unit excess noise in its squeezed
    combinations (vs = 2, va = 1: covariance I + (I + K)/2) propagated through
    every mid-chain element.  It holds no pump: its pairs, detected at unit
    efficiency, give the gains through which any source reads out
    (:meth:`DetectedPair.gains`)."""
    return _propagate(cfg, sideband_pair_state(2.0, 1.0, cfg.source_detuning_mhz))


def _response_pairs(cfg: ScenarioConfig) -> list[DetectedPair]:
    """The chain response's sideband pair of each analysis band, detected at
    unit efficiency."""
    response, lo = chain_response(cfg), ModeLabel.from_mhz(cfg.hd.lo_offset_mhz)
    return [detect_pair(response, lo, analysis) for analysis in cfg.hd.analysis_mhz]


def _source_excess(opo: OpoParams, detuning_mhz):
    """The source's excess noise (vs - 1, va - 1) at these detunings, escape
    efficiency folded in as in :func:`opo_sideband_state`."""
    vs, va = opo_variances(opo, detuning_mhz, opo.escape_efficiency)
    return vs - 1.0, va - 1.0


def _readout(excess, gains, eta):
    """Homodyne noise 1 + eta ((vs - 1) a + (va - 1) b) of the source excess
    (vs - 1, va - 1) through the gains (a, b) at detection efficiency eta;
    scalars or arrays."""
    (xs, xa), (a, b) = excess, gains
    return 1.0 + eta * (xs * a + xa * b)


def analytic_noise(cfg: ScenarioConfig, pump_mw: float, theta: float, analysis_mhz: float) -> float:
    """Analytic noise power in SNL units at one (pump, phase, analysis
    frequency) point: the chain response's gains read at the band-centre
    source excess, equal to ``hd_noise_power`` of :func:`propagate_chain` up
    to rounding."""
    hd = cfg.hd
    pair = detect_pair(chain_response(cfg), ModeLabel.from_mhz(hd.lo_offset_mhz), analysis_mhz)
    excess = _source_excess(_opo_params(cfg, pump_mw), cfg.source_detuning_mhz)
    return _readout(excess, pair.gains(theta + hd.delta_theta_rad), hd.efficiency)


def _mc_targets(cfg: ScenarioConfig, opo: OpoParams, gains, eta: float, freqs) -> list:
    """Optical target PSD at grid frequencies nu >= 0 for each LO phase's
    gains (``gains[i][j]``: phase i, analysis band j).

    Bin nu reads the source at its detuning min(|lo + nu - s|, |lo - nu - s|)
    = |nu - |lo - s|| (s: the net tuner shift) through the gains of its
    nearest analysis band.  The source excess is evaluated once for every
    phase.
    """
    hd = cfg.hd
    excess = _source_excess(opo, np.abs(freqs - abs(hd.lo_offset_mhz - cfg.total_shift_mhz)))
    order = np.argsort(hd.analysis_mhz)
    centres = np.array(hd.analysis_mhz)[order]
    band = order[np.searchsorted((centres[:-1] + centres[1:]) / 2.0, freqs)]
    return [np.choose(band, [_readout(excess, g, eta) for g in row]) for row in gains]


# Stream ids keep every synthesized trace of a run statistically independent.
_SNL_STREAM = 1
_ELECTRONIC_STREAM = 2
_SIGNAL_STREAM_BASE = 1000


def _mode(cfg: ScenarioConfig, mode: str | None) -> str:
    mode = cfg.mode if mode is None else mode
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    return mode


def _acquisition(cfg: ScenarioConfig, seed: int | None) -> AcquisitionParams:
    try:
        return cfg.acquisition if seed is None else replace(cfg.acquisition, rng_seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _analysis_bins(cfg: ScenarioConfig, acq: AcquisitionParams) -> slice:
    """Grid bins of the analysis bands; a band that holds no bin is a ConfigError."""
    try:
        return band_slice(acq, cfg.hd.analysis_mhz)
    except ValueError as exc:
        raise ConfigError(f"{exc} on the {acq.samples_per_round}-sample grid") from None


def _noise_spectra(
    cfg: ScenarioConfig, acq: AcquisitionParams, bins: slice
) -> dict[str, SpectrumEstimate]:
    snl_model = NoiseModel(np.ones_like, cfg.electronic_floor, ())
    elec_model = NoiseModel(None, cfg.electronic_floor, ())
    return {
        "snl": simulate_spectrum(snl_model, acq, stream=_SNL_STREAM, bins=bins),
        "electronic": simulate_spectrum(elec_model, acq, stream=_ELECTRONIC_STREAM, bins=bins),
    }


def _evaluate(cfg: ScenarioConfig, pairs: Sequence[DetectedPair], pump: float,
              thetas: Sequence[float], delta_theta: float, eta: float, analytic: bool, mc=None):
    """(values, spectra) of one pump point at the LO phases ``thetas``, lock
    offset ``delta_theta`` and detection efficiency ``eta``, read through
    :func:`_response_pairs`.  values[i][j] is the analytic noise at thetas[i]
    in band j (None unless ``analytic``).  ``mc`` is None or (acq, noise,
    bins, stream), noise being the 'snl' and 'electronic' spectra over grid
    bins ``bins``; spectra[i] is then the (raw, corrected) estimate at
    thetas[i] over those bins.
    """
    opo = _opo_params(cfg, pump)  # checked on every path
    gains = [[pair.gains(theta + delta_theta) for pair in pairs] for theta in thetas]
    values = spectra = None
    if analytic:
        centre = _source_excess(opo, cfg.source_detuning_mhz)
        values = [[_readout(centre, g, eta) for g in row] for row in gains]
    if mc is not None:
        acq, noise, bins, stream = mc
        # Each target is tabulated on the noise spectra's bins, which are the
        # bins simulate_spectra reads.
        targets = _mc_targets(cfg, opo, gains, eta, noise["snl"].freqs_mhz)
        models = [
            NoiseModel(lambda freqs, target=target: target, cfg.electronic_floor,
                       cfg.interference_tones)
            for target in targets
        ]
        # Common random numbers across the LO phases of one pump point: phase
        # comparisons then reflect the model, not draw-to-draw scatter.
        spectra = []
        for raw in simulate_spectra(models, acq, stream=stream, bins=bins):
            try:
                spectra.append((raw, calibrate(raw, noise["snl"], noise["electronic"])))
            except ValueError as exc:
                raise ConfigError(f"{exc} at {acq.rounds} rounds; raise acquisition.rounds") from None
    return values, spectra


def run_scenario(cfg: ScenarioConfig, mode: str | None = None, seed: int | None = None) -> ScenarioResult:
    """Execute a scenario: analytic values, optional Monte-Carlo spectra over
    the whole grid, and pass/fail against the reference table.

    The chain is propagated once, as its response (:func:`chain_response`),
    and detected once per analysis band; each pump is one :func:`_evaluate`
    call.  The analytic values equal :func:`analytic_noise`.
    """
    mode = _mode(cfg, mode)
    acq = _acquisition(cfg, seed)
    hd = cfg.hd
    thetas, bands = hd.thetas_rad, hd.analysis_mhz
    symmetric = [cfg.is_symmetric(analysis) for analysis in bands]
    pairs = _response_pairs(cfg)
    mc_pumps = cfg.pump_sweep_mw if cfg.mc_pump_mw is None else cfg.mc_pump_mw
    spectra: dict[str, SpectrumEstimate] = {}
    if mode != "analytic":
        _analysis_bins(cfg, acq)  # a band with no grid bin is a ConfigError here too
        noise = _noise_spectra(cfg, acq, slice(None))
        spectra.update(noise)

    rows: list[ResultRow] = []
    for pump_index, pump in enumerate(cfg.pump_sweep_mw):
        mc = None
        if mode != "analytic" and pump in mc_pumps:
            # Streams stay independent across pumps and traces.
            mc = (acq, noise, slice(None), _SIGNAL_STREAM_BASE + pump_index)
        values, estimates = _evaluate(cfg, pairs, pump, thetas, hd.delta_theta_rad,
                                      hd.efficiency, mode != "montecarlo", mc)
        for i, theta in enumerate(thetas):
            if estimates is not None:
                key = f"pump{pump:g}mW_{_theta_tag(theta)}"
                spectra[f"{key}_raw"], spectra[f"{key}_corrected"] = estimates[i]
            for j, (analysis, sym) in enumerate(zip(bands, symmetric)):
                analytic_linear = None if values is None else values[i][j]
                analytic_db = None if values is None else db(analytic_linear)
                mc_db = None
                if estimates is not None:
                    mc_db = db(band_power(estimates[i][1], analysis, acq.band_width_mhz))
                quantity = _quantity_name(sym, pump, theta, analysis)
                ref = _REFERENCE_INDEX.get((cfg.name, quantity))
                passed = None
                if ref is not None:
                    model_db = analytic_db if analytic_db is not None else mc_db
                    if model_db is not None:
                        passed = abs(model_db - ref.paper_value_db) <= ref.tolerance_db
                rows.append(
                    ResultRow(
                        scenario=cfg.name,
                        quantity=quantity,
                        pump_mw=pump,
                        theta_rad=theta,
                        analysis_mhz=analysis,
                        analytic_linear=analytic_linear,
                        analytic_db=analytic_db,
                        mc_db=mc_db,
                        reference_db=None if ref is None else ref.paper_value_db,
                        tolerance_db=None if ref is None else ref.tolerance_db,
                        passed=passed,
                    )
                )
    return ScenarioResult(cfg.name, mode, acq.rng_seed, tuple(rows), spectra)


def summary_csv(result: ScenarioResult) -> str:
    """Per-run summary table: scenario,quantity,model_db,reference_db,tolerance_db,pass.

    A row with neither an analytic nor a Monte-Carlo value (a pump outside
    ``mc_pump_mw`` in Monte-Carlo mode) has an empty ``model_db`` cell.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["scenario", "quantity", "model_db", "reference_db", "tolerance_db", "pass"])
    for row in result.rows:
        writer.writerow(
            [
                row.scenario,
                row.quantity,
                "" if row.model_db is None else repr(row.model_db),
                "" if row.reference_db is None else repr(row.reference_db),
                "" if row.tolerance_db is None else repr(row.tolerance_db),
                "" if row.passed is None else str(row.passed).lower(),
            ]
        )
    return out.getvalue()


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_PARAMETERS = ("pump_mw", "delta_theta_rad", "hd_efficiency")


def sweep(
    cfg: ScenarioConfig,
    parameter: str,
    values: Sequence[float],
    mode: str | None = None,
    seed: int | None = None,
) -> list[dict]:
    """Run the scenario across one parameter axis.

    Returns one record per value with the squeezed (theta = 0) and
    antisqueezed (theta = pi/2) noise in dB in the first analysis band;
    Monte-Carlo columns are filled when the effective mode includes it.
    Each value is one :func:`_evaluate` call at the first pump, lock offset
    and detection efficiency of ``cfg``, one of them swept, and is checked
    as the config field it stands for.  No axis changes the chain and
    detection efficiency enters only the readout, so the response is
    propagated and detected once.  Monte-Carlo spectra, the noise spectra
    simulated once, cover only the analysis bands' bins.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMETERS}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    hd = cfg.hd
    if not cfg.is_symmetric(hd.analysis_mhz[0]):
        raise ConfigError("sweep supports scenarios with the LO matched to the state")
    mode = _mode(cfg, mode)
    acq = _acquisition(cfg, seed)  # the seed is checked in every mode, as run_scenario does
    pairs = _response_pairs(cfg)
    mc = None
    if mode != "analytic":
        bins = _analysis_bins(cfg, acq)
        mc = (acq, _noise_spectra(cfg, acq, bins), bins, _SIGNAL_STREAM_BASE)

    records = []
    for value in values:
        value = float(value)
        pump, delta_theta, eta = cfg.pump_sweep_mw[0], hd.delta_theta_rad, hd.efficiency
        if parameter == "pump_mw":
            _check_real("scenario", "pump_sweep_mw", value, 0.0)
            pump = value
        elif parameter == "delta_theta_rad":
            _check_real("hd", "delta_theta_rad", value)
            delta_theta = value
        else:
            _check_real("hd", "efficiency", value, 0.0, 1.0)
            eta = value
        analytic, estimates = _evaluate(cfg, pairs, pump, (0.0, math.pi / 2), delta_theta, eta,
                                        mode != "montecarlo", mc)
        mc_db = None
        if estimates is not None:
            mc_db = [db(band_power(corrected, hd.analysis_mhz[0], acq.band_width_mhz))
                     for _, corrected in estimates]
        squeezed, antisqueezed = mc_db if analytic is None else [db(row[0]) for row in analytic]
        record = {
            "parameter": parameter,
            "value": value,
            "squeezed_db": squeezed,
            "antisqueezed_db": antisqueezed,
        }
        if mc_db is not None:
            record["squeezed_mc_db"], record["antisqueezed_mc_db"] = mc_db
        records.append(record)
    return records


def sweep_csv(records: Sequence[dict]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = list(records[0].keys())
    writer.writerow(header)
    for rec in records:
        writer.writerow([rec[k] if isinstance(rec[k], str) else repr(rec[k]) for k in header])
    return out.getvalue()


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------

def _builtin_fig4a() -> ScenarioConfig:
    return ScenarioConfig(
        name="fig4a",
        description=(
            "Source state read out directly with the carrier LO at 450 mW pump: "
            "squeezing and antisqueezing spectra at 1.55 MHz"
        ),
        chain=(
            SourceSpec(escape_efficiency=0.934),
            LossSpec("source-to-detector coupling", 0.854),
            HdSpec(
                lo_offset_mhz=0.0,
                thetas_rad=(0.0, math.pi / 2),
                analysis_mhz=(1.55,),
                delta_theta_rad=_DTH_LOCK,
                efficiency=0.888,
            ),
        ),
        pump_sweep_mw=(450.0,),
        acquisition=AcquisitionParams(
            sample_rate_msps=50.0,
            samples_per_round=50_000,
            rounds=500,
            band_center_mhz=1.55,
            band_width_mhz=0.1,
            rng_seed=DEFAULT_SEED,
        ),
    )


def _builtin_fig4b() -> ScenarioConfig:
    cfg = _builtin_fig4a()
    return replace(
        cfg,
        name="fig4b",
        description=(
            "Pump sweep of the directly measured source state; the squeezing "
            "optimum sits at 270 mW"
        ),
        pump_sweep_mw=tuple(float(p) for p in range(90, 811, 90)),
        mc_pump_mw=(270.0,),
    )


def _tuner_chain_head() -> tuple[ComponentSpec, ...]:
    # The 0.713 propagation factor folds the source escape efficiency
    # together with the fiber path to the tuner input, so the source spec
    # carries escape 1.0 here and the budget matches the listed factors.
    return (
        SourceSpec(escape_efficiency=1.0),
        LossSpec("propagation to tuner input (incl. source escape)", 0.713),
        AbiSpec(shift_mhz=80.0, zeta=0.91, visibility=1.0, phi_rad=0.0),
        LossSpec("tuner-to-detector coupling", 0.841),
    )


def _builtin_fig5a() -> ScenarioConfig:
    return ScenarioConfig(
        name="fig5a",
        description=(
            "Tuned state read out with the carrier LO at 450 mW pump: "
            "phase-insensitive beat bands at 78.45 and 81.55 MHz, with the "
            "80 MHz drive pickup tone"
        ),
        chain=_tuner_chain_head()
        + (
            HdSpec(
                lo_offset_mhz=0.0,
                thetas_rad=(math.pi / 2, 0.0),
                analysis_mhz=(81.55, 78.45),
                delta_theta_rad=_DTH_LOCK,
                efficiency=0.806,
            ),
        ),
        pump_sweep_mw=(450.0,),
        acquisition=AcquisitionParams(
            sample_rate_msps=250.0,
            samples_per_round=50_000,
            rounds=500,
            band_center_mhz=81.55,
            band_width_mhz=0.1,
            rng_seed=DEFAULT_SEED,
        ),
        interference_tones=((80.0, 30.0),),
    )


def _builtin_fig5b() -> ScenarioConfig:
    return ScenarioConfig(
        name="fig5b",
        description=(
            "Tuned state read out with the shifted LO at 450 mW pump: "
            "squeezing and antisqueezing at 1.55 MHz"
        ),
        chain=_tuner_chain_head()
        + (
            HdSpec(
                lo_offset_mhz=80.0,
                thetas_rad=(0.0, math.pi / 2),
                analysis_mhz=(1.55,),
                delta_theta_rad=_DTH_LOCK,
                efficiency=0.888,
            ),
        ),
        pump_sweep_mw=(450.0,),
        acquisition=AcquisitionParams(
            sample_rate_msps=50.0,
            samples_per_round=50_000,
            rounds=500,
            band_center_mhz=1.55,
            band_width_mhz=0.1,
            rng_seed=DEFAULT_SEED,
        ),
    )


def _builtin_fig5c() -> ScenarioConfig:
    cfg = _builtin_fig5b()
    return replace(
        cfg,
        name="fig5c",
        description=(
            "Pump sweep of the tuned state with the shifted LO; the squeezing "
            "optimum sits at 270 mW"
        ),
        pump_sweep_mw=tuple(float(p) for p in range(90, 811, 90)),
        mc_pump_mw=(270.0,),
    )


BUILTIN_SCENARIOS: dict[str, ScenarioConfig] = {
    cfg.name: cfg
    for cfg in (
        _builtin_fig4a(),
        _builtin_fig4b(),
        _builtin_fig5a(),
        _builtin_fig5b(),
        _builtin_fig5c(),
    )
}


def list_scenarios() -> list[tuple[str, str]]:
    """Builtin scenario names plus descriptions, lexicographically ordered."""
    return [(name, BUILTIN_SCENARIOS[name].description) for name in sorted(BUILTIN_SCENARIOS)]


def get_scenario(name: str) -> ScenarioConfig:
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; builtins: {', '.join(sorted(BUILTIN_SCENARIOS))}"
        ) from None


# ---------------------------------------------------------------------------
# Config file (JSON) round trip
# ---------------------------------------------------------------------------

def _component_to_dict(element: ComponentSpec) -> dict:
    data = {"kind": _CLASS_TO_KIND[type(element)]}
    for name in element.__dataclass_fields__:
        value = getattr(element, name)
        data[name] = list(value) if isinstance(value, tuple) else value
    return data


def _component_from_dict(data: dict) -> ComponentSpec:
    data = dict(data)
    kind = data.pop("kind", None)
    cls = _KIND_TO_CLASS.get(kind)
    if cls is None:
        raise ConfigError(f"unknown chain element kind {kind!r}")
    for name, value in list(data.items()):
        if isinstance(value, list):
            data[name] = tuple(value)
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {kind!r} element: {exc}") from None


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    acq = cfg.acquisition
    return {
        "name": cfg.name,
        "description": cfg.description,
        "chain": [_component_to_dict(e) for e in cfg.chain],
        "pump_sweep_mw": list(cfg.pump_sweep_mw),
        "mc_pump_mw": None if cfg.mc_pump_mw is None else list(cfg.mc_pump_mw),
        "mode": cfg.mode,
        "electronic_floor": cfg.electronic_floor,
        "interference_tones": [list(t) for t in cfg.interference_tones],
        "acquisition": {
            "sample_rate_msps": acq.sample_rate_msps,
            "samples_per_round": acq.samples_per_round,
            "rounds": acq.rounds,
            "band_center_mhz": acq.band_center_mhz,
            "band_width_mhz": acq.band_width_mhz,
            "rng_seed": acq.rng_seed,
        },
    }


def scenario_from_dict(data: dict) -> ScenarioConfig:
    try:
        chain = tuple(_component_from_dict(e) for e in data["chain"])
        acq = AcquisitionParams(**data["acquisition"])
        tones = tuple(tuple(t) for t in data.get("interference_tones", []))
        mc_pump = data.get("mc_pump_mw")
        return ScenarioConfig(
            name=data["name"],
            description=data.get("description", ""),
            chain=chain,
            pump_sweep_mw=tuple(data["pump_sweep_mw"]),
            acquisition=acq,
            electronic_floor=data.get("electronic_floor", 0.1),
            interference_tones=tones,
            mode=data.get("mode", "both"),
            mc_pump_mw=None if mc_pump is None else tuple(mc_pump),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from None


def save_config(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(cfg), indent=2) + "\n")


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return scenario_from_dict(data)
