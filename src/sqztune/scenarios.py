"""
Declarative experiment scenarios: a chain of optical elements from the
parametric source to the homodyne detector, reference measurement values
with tolerances, an analytic + Monte-Carlo runner, and parameter sweeps.

Runs and sweeps check all their points before any Monte-Carlo draw and
then share one evaluator (:func:`_evaluate`).  It reads one pump-independent
chain response (:func:`chain_response`): the chain's transfer map, the
complex amplitudes with which the source sideband pair reaches each mode.
Each analysis band reads its 2x2 transfer from the map and is detected once
(:func:`_detected`).  The readout is linear in the source's excess noise: the
homodyne noise is 1 + eta ((vs - 1) a + (va - 1) b), with gains (a, b) per
band and LO phase (:meth:`DetectedPair.gains`), taken at the band-centre
source excess for analytic rows and at each grid bin's for Monte-Carlo
targets.  So a run or sweep costs one transfer map plus one array readout
of all its points (:func:`_analytic_values`); only Monte-Carlo targets are
built per point, and every Monte-Carlo point reads the one signal stream.

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
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .gaussian_core import GaussianState, ModeLabel, apply_uniform_loss, real_form
from .homodyne import DetectedPair, db
from .optics_components import (
    MIN_BANDWIDTH_MHZ,
    SPLIT_NORM_TOL,
    OpoParams,
    TransferMap,
    _couple_pairs,
    abi_efficiency,
    abi_ideal_unitary,
    aom_unitary,
    attenuate_response,
    couple_response,
    opo_sideband_state,
    opo_variances,
    sideband_pair_state,
)
from .timeseries import (
    AcquisitionParams,
    NoiseModel,
    SpectrumEstimate,
    _band_edges,
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
    seen = {}
    for value in values:
        tag = label(value)
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
        _check_real("opo", "threshold_mw", self.threshold_mw)
        if self.threshold_mw <= 0:
            raise ConfigError("opo threshold_mw must be positive")
        _check_real("opo", "bandwidth_mhz", self.bandwidth_mhz, MIN_BANDWIDTH_MHZ)
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
        for theta in self.thetas_rad:
            # Output labels carry the phase in whole degrees.
            if not math.isfinite(math.degrees(theta)):
                raise ConfigError(f"hd thetas_rad {theta!r} is too large to express in degrees")
            # The readout turns the LO by theta + delta_theta_rad.
            if not math.isfinite(theta + self.delta_theta_rad):
                raise ConfigError(
                    f"hd thetas_rad {theta!r} plus delta_theta_rad "
                    f"{self.delta_theta_rad!r} is not a finite phase"
                )
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

# 1 THz, beyond any tuner.  A carrier-LO readout reads the source up to this
# detuning plus twice the Nyquist frequency from its carrier, which the
# Lorentzian's range must hold (see MIN_BANDWIDTH_MHZ).
MAX_DETUNING_MHZ = 1e6


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
        if not (math.isclose(hd.lo_offset_mhz, 0.0, abs_tol=1e-9) or self.symmetric):
            raise ConfigError(
                f"LO offset {hd.lo_offset_mhz} MHz matches neither the carrier (0) "
                f"nor the net tuner shift ({self.total_shift_mhz} MHz)"
            )
        nyquist = self.acquisition.sample_rate_msps / 2.0
        for freq, power in self.interference_tones:
            _check_real("interference tone", "frequency_mhz", freq)
            # Bounded as the electronic floor is: a tone's bin enters the
            # same sums of squared periodograms.
            _check_real("interference tone", "power", power, 0.0, 1e6)
            if freq <= 0:
                raise ConfigError(f"interference tone at {freq} MHz must be above 0 MHz")
            if freq >= nyquist:
                raise ConfigError(
                    f"interference tone at {freq} MHz exceeds the Nyquist frequency {nyquist} MHz"
                )
        for f in hd.analysis_mhz:
            # band_power's edges, rounding slack included: neither the DC
            # nor the Nyquist bin may enter a band.
            lo, hi = _band_edges(f, self.acquisition.band_width_mhz)
            if lo <= 0:
                raise ConfigError(f"analysis band at {f} MHz reaches 0 MHz")
            if hi >= nyquist:
                raise ConfigError(
                    f"analysis band at {f} MHz exceeds the Nyquist frequency {nyquist} MHz"
                )
        deltas = {self._source_detuning(f) for f in hd.analysis_mhz}
        if len(deltas) != 1:
            raise ConfigError(
                "analysis frequencies map to different source sideband detunings "
                f"{sorted(deltas)}; split them into separate scenarios"
            )
        delta = next(iter(deltas))
        if not 0 < delta <= MAX_DETUNING_MHZ:
            raise ConfigError(
                f"analysis pair reads the source {delta:g} MHz from its carrier, "
                f"outside (0, MAX_DETUNING_MHZ = {MAX_DETUNING_MHZ:g}]"
            )
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

    @cached_property
    def lo_detuning_mhz(self) -> float:
        """|lo - s|, the LO's distance from the tuned state's carrier (s: the
        net tuner shift): the band at nu reads the source at |nu - |lo - s||."""
        return abs(self.hd.lo_offset_mhz - self.total_shift_mhz)

    @cached_property
    def symmetric(self) -> bool:
        """True when the LO sits on the tuned state's carrier (lo = s, to the
        LO check's tolerance): each band then reads both sidebands of one pair."""
        return math.isclose(self.hd.lo_offset_mhz, self.total_shift_mhz, abs_tol=1e-9)

    def _source_detuning(self, analysis_mhz: float) -> float:
        """Source sideband detuning the analysis pair at this frequency reads:
        |analysis_mhz - |lo - s|| snapped to the label grid."""
        try:
            return ModeLabel.from_mhz(abs(analysis_mhz - self.lo_detuning_mhz)).mhz
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    @cached_property
    def source_detuning_mhz(self) -> float:
        return self._source_detuning(self.hd.analysis_mhz[0])


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


def _csv_cell(value) -> str:
    """The one cell rule of every CSV table: a number as its repr, a bool in
    lower case, None as an empty cell and text as it is."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return value if isinstance(value, str) else repr(value)


def _csv_table(header: Sequence[str], rows) -> str:
    """CSV text of ``rows`` under ``header``, each cell by :func:`_csv_cell`."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_csv_cell, row) for row in rows)
    return out.getvalue()


def emit_reference(entries: Sequence[ReferenceEntry] = REFERENCE_TABLE) -> str:
    """Reference table as CSV text (deterministic ordering)."""
    return _csv_table(REFERENCE_CSV_HEADER, (
        [e.scenario, e.quantity, e.paper_value_db, e.tolerance_db, e.provenance]
        for e in sorted(entries, key=lambda e: (e.scenario, e.quantity))
    ))


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


def _walk(cfg: ScenarioConfig, start, loss, couple):
    """``start``, a state or a transfer map, sent through every mid-chain
    element: ``loss(start, eta)`` is a uniform loss and ``couple(start, u,
    shift_mhz)`` couples every mode with its shifted partner through the pair
    unitary ``u``.  An AOM couples; a tuner couples, then loses its
    :func:`abi_efficiency`.  A shift that pairs a mode with a partner that is
    already paired (its mode pairs overlap) is a ConfigError naming the element.
    """
    for position, element in enumerate(cfg.chain[1:-1], start=1):
        if isinstance(element, LossSpec):
            start = loss(start, element.efficiency)
            continue
        try:
            if isinstance(element, AbiSpec):
                coupled = couple(start, abi_ideal_unitary(element.phi_rad), element.shift_mhz)
                start = loss(coupled, abi_efficiency(element.zeta, element.visibility))
            else:
                start = couple(start, aom_unitary(element.t, element.r), element.shift_mhz)
        except ValueError as exc:
            kind = _CLASS_TO_KIND[type(element)]
            raise ConfigError(
                f"chain element {position} ({kind}, shift {element.shift_mhz:g} MHz): {exc}"
            ) from None
    return start


def _propagate(cfg: ScenarioConfig, state: GaussianState) -> GaussianState:
    """``state`` sent through every mid-chain element, covariance and all."""
    return _walk(cfg, state, apply_uniform_loss, _couple_pairs)


def propagate_chain(cfg: ScenarioConfig, pump_mw: float) -> GaussianState:
    """Source sideband pair at ``pump_mw`` propagated through every mid-chain
    element: the physical state, the covariance reference of
    :func:`chain_response`.  No run or sweep calls it."""
    return _propagate(cfg, opo_sideband_state(_opo_params(cfg, pump_mw), cfg.source_detuning_mhz))


def chain_response(cfg: ScenarioConfig) -> TransferMap:
    """The chain's transfer map: each mode's complex amplitudes from the
    source sideband pair (-nu, +nu), in the order the modes enter.  It holds
    no pump.  A loss scales every entry by sqrt(eta) (:func:`attenuate_response`);
    a coupler enters every shifted partner (:func:`couple_response`), so the
    map holds the modes of :func:`propagate_chain`'s state and rejects the
    same overlaps.
    """
    nu = cfg.source_detuning_mhz
    source = {ModeLabel.from_mhz(-nu): np.array([1.0, 0.0], dtype=complex),
              ModeLabel.from_mhz(nu): np.array([0.0, 1.0], dtype=complex)}
    return _walk(cfg, source, attenuate_response, couple_response)


# Excess covariance V - I = (I + K)/2 of the response's source pair (vs = 2,
# va = 1); the detuning only labels its modes.
_RESPONSE_EXCESS = sideband_pair_state(2.0, 1.0, 1.0).cov - np.eye(4)


def _detected(response: TransferMap, lo: ModeLabel, analysis_mhz: float) -> DetectedPair:
    """The pair at lo -+ analysis_mhz of the chain response, detected at unit
    efficiency.  The rows of its 2x2 transfer T are the map's entries there
    (an absent mode counts as 0), and its covariance is
    R(T) (V - I) R(T)^T + I, with R the quadrature form (:func:`real_form`)."""
    r = real_form(np.array([response.get(lo.shifted_mhz(nu), (0j, 0j))
                            for nu in (-analysis_mhz, analysis_mhz)]))
    return DetectedPair.of_covariance(r @ _RESPONSE_EXCESS @ r.T + np.eye(4))


def _response_pairs(cfg: ScenarioConfig) -> list[DetectedPair]:
    """The chain response's sideband pair of each analysis band, detected at
    unit efficiency from one transfer map (:func:`_detected`)."""
    response, lo = chain_response(cfg), ModeLabel.from_mhz(cfg.hd.lo_offset_mhz)
    return [_detected(response, lo, analysis) for analysis in cfg.hd.analysis_mhz]


def _source_excess(cfg: ScenarioConfig, opo, detuning_mhz):
    """The source's excess noise (vs - 1, va - 1) at these detunings, escape
    efficiency folded in as in :func:`opo_sideband_state`.  ``opo`` may be a
    sequence of pump points at one detuning, which gives arrays over them."""
    vs, va = opo_variances(opo, detuning_mhz, cfg.source.escape_efficiency)
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
    pair = _detected(chain_response(cfg), ModeLabel.from_mhz(hd.lo_offset_mhz), analysis_mhz)
    excess = _source_excess(cfg, _opo_params(cfg, pump_mw), cfg.source_detuning_mhz)
    return _readout(excess, pair.gains(theta + hd.delta_theta_rad), hd.efficiency)


def _analytic_values(cfg: ScenarioConfig, opos: Sequence[OpoParams], gains, eta) -> np.ndarray:
    """Analytic noise of a run of points in one array pass, read at the
    band-centre source excess.  The points run along the first axis of the
    pump points ``opos``, of ``gains`` (an array whose last axis is (a, b))
    and of the detection efficiency ``eta`` (a scalar or an array broadcast
    against the gains); an axis of length 1 is shared by every point.  Each
    entry equals the scalar readout bit for bit: the same IEEE operations on
    the same operands."""
    gains = np.asarray(gains, dtype=float)
    a, b = gains[..., 0], gains[..., 1]
    trailing = (1,) * (a.ndim - 1)
    xs, xa = (x.reshape(-1, *trailing)
              for x in _source_excess(cfg, opos, cfg.source_detuning_mhz))
    return _readout((xs, xa), (a, b), eta)


def _mc_targets(cfg: ScenarioConfig, opo: OpoParams, gains, eta: float, freqs) -> list:
    """Optical target PSD at grid frequencies nu >= 0 for each LO phase's
    gains (``gains[i][j]``: phase i, analysis band j).

    Bin nu reads the source at |nu - |lo - s||, as a band does
    (:attr:`ScenarioConfig.lo_detuning_mhz`), through the gains of its
    nearest analysis band.  The source excess is evaluated once for every
    phase.
    """
    hd = cfg.hd
    excess = _source_excess(cfg, opo, np.abs(freqs - cfg.lo_detuning_mhz))
    order = np.argsort(hd.analysis_mhz)
    centres = np.array(hd.analysis_mhz)[order]
    band = order[np.searchsorted((centres[:-1] + centres[1:]) / 2.0, freqs)]
    return [np.choose(band, [_readout(excess, g, eta) for g in row]) for row in gains]


# Stream ids keep the noise and signal traces statistically independent; every
# signal model reads the one signal stream, whatever its point's place.
_SNL_STREAM = 1
_ELECTRONIC_STREAM = 2
_SIGNAL_STREAM = 1000
# Spectrum values a Monte-Carlo evaluation holds: (2 noise spectra + a raw
# and a corrected one per MC point and LO phase) x bins read.  A one-pump,
# two-phase run on the largest grid holds 1.3e7; fig5a holds 1.5e5.
MAX_SPECTRUM_VALUES = 2**24


def _mode_and_acquisition(cfg: ScenarioConfig, mode: str | None, seed: int | None):
    """The config's mode and acquisition, with ``mode`` and ``seed`` where given."""
    mode = cfg.mode if mode is None else mode
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    try:
        return mode, cfg.acquisition if seed is None else replace(cfg.acquisition, rng_seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _analysis_bins(cfg: ScenarioConfig, acq: AcquisitionParams) -> slice:
    """Grid bins of the analysis bands; a band that holds no bin is a ConfigError."""
    try:
        return band_slice(acq, cfg.hd.analysis_mhz)
    except ValueError as exc:
        raise ConfigError(f"{exc} on the {acq.samples_per_round}-sample grid") from None


def _positive(noise: np.ndarray) -> np.ndarray:
    """``noise`` (SNL units), checked positive: only a source at threshold on
    a lossless chain reads 0, or by rounding less, where no dB value exists."""
    low = float(noise.min())
    if not low > 0:
        raise ConfigError(f"noise power {low!r} (SNL units) is not positive: "
                          "the source sits at threshold on a lossless chain")
    return noise


def _evaluate(cfg: ScenarioConfig, mode: str, acq: AcquisitionParams,
              opos: Sequence[OpoParams], offsets: Sequence[float], etas: Sequence[float],
              thetas: Sequence[float], mc: Sequence[bool], whole_grid: bool):
    """The one evaluator behind :func:`run_scenario` and :func:`sweep`: the
    (analytic values, Monte-Carlo estimates, noise spectra) of checked points.

    Point k takes entry k % len(axis) of each axis (one entry, or one per
    point): pump points ``opos``, lock offsets ``offsets``, detection
    efficiencies ``etas`` and Monte-Carlo flags ``mc``.  Analytic values are
    one :func:`_analytic_values` pass, as lists indexed [point][LO phase][band]
    (None in Monte-Carlo mode).  Other modes check the analysis bins,
    MAX_SPECTRUM_VALUES and the Monte-Carlo targets before any draw, give
    the Monte-Carlo points one :func:`simulate_spectra` call on the signal
    stream, and draw the noise, over the whole grid or the bands' bins.
    Every analytic value and target must be positive.  A point's estimates
    are its phases' (raw, corrected) spectra, or None.
    """
    points = max(map(len, (opos, offsets, etas, mc)))
    pairs = _response_pairs(cfg)
    gains = [[[pair.gains(theta + offset) for pair in pairs] for theta in thetas]
             for offset in offsets]
    values = None
    if mode != "montecarlo":
        values = _positive(_analytic_values(cfg, opos, gains, np.array(etas)[:, None, None]))
        values = values.tolist()
    estimates: list = [None] * points
    if mode == "analytic":
        return values, estimates, {}
    ks = [k for k in range(points) if mc[k % len(mc)]]
    bins = _analysis_bins(cfg, acq)  # a band with no grid bin is a ConfigError on both grids
    bins = slice(None) if whole_grid else bins
    k0, k1, _ = bins.indices(acq.samples_per_round // 2 + 1)
    size = (2 + 2 * len(ks) * len(thetas)) * (k1 - k0)
    if size > MAX_SPECTRUM_VALUES:
        raise ConfigError(
            f"{len(ks)} Monte-Carlo points x {len(thetas)} LO phases over {k1 - k0} bins hold "
            f"{size} spectrum values, more than MAX_SPECTRUM_VALUES = {MAX_SPECTRUM_VALUES}"
        )
    floor = cfg.electronic_floor
    freqs = acq.grid_range_mhz(k0, k1)
    # A model hands its tabulated target over to the first target_psd call
    # and keeps no reference, so the array is freed once target_psd has added
    # the floor to it.
    models = [
        NoiseModel(lambda _, held=[_positive(target)]: held.pop(), floor, cfg.interference_tones)
        for k in ks
        for target in _mc_targets(cfg, opos[k % len(opos)], gains[k % len(offsets)],
                                  etas[k % len(etas)], freqs)
    ]
    # Each stream's rounds are keyed by (seed, stream, round), so drawing the
    # signal first changes no value and frees the targets before any round.
    raws = simulate_spectra(models, acq, _SIGNAL_STREAM, bins)
    noise = {
        "snl": simulate_spectrum(NoiseModel(np.ones_like, floor, ()), acq, _SNL_STREAM, bins),
        "electronic": simulate_spectrum(NoiseModel(None, floor, ()), acq, _ELECTRONIC_STREAM, bins),
    }
    try:
        spectra = [(raw, calibrate(raw, noise["snl"], noise["electronic"])) for raw in raws]
    except ValueError as exc:
        raise ConfigError(f"{exc} at {acq.rounds} rounds; raise acquisition.rounds") from None
    for i, k in enumerate(ks):
        estimates[k] = spectra[i * len(thetas):(i + 1) * len(thetas)]
    return values, estimates, noise


def run_scenario(cfg: ScenarioConfig, mode: str | None = None, seed: int | None = None) -> ScenarioResult:
    """Execute a scenario: analytic values, optional Monte-Carlo spectra over
    the whole grid, and pass/fail against the reference table.

    Every pump is checked before :func:`_evaluate` reads them all, so a bad
    pump is a ConfigError before any Monte-Carlo draw.  The analytic values
    equal :func:`analytic_noise`.  Every Monte-Carlo pump reads the one
    signal stream, so its rows do not depend on its place in
    ``pump_sweep_mw`` and equal a one-value pump :func:`sweep` at it.
    """
    mode, acq = _mode_and_acquisition(cfg, mode, seed)
    hd = cfg.hd
    thetas, bands = hd.thetas_rad, hd.analysis_mhz
    opos = [_opo_params(cfg, pump) for pump in cfg.pump_sweep_mw]  # checked on every path
    mc = [cfg.mc_pump_mw is None or pump in cfg.mc_pump_mw for pump in cfg.pump_sweep_mw]
    values, estimates, spectra = _evaluate(cfg, mode, acq, opos, [hd.delta_theta_rad],
                                           [hd.efficiency], thetas, mc, whole_grid=True)

    rows: list[ResultRow] = []
    for pump_index, (pump, pump_estimates) in enumerate(zip(cfg.pump_sweep_mw, estimates)):
        for i, theta in enumerate(thetas):
            if pump_estimates is not None:
                key = f"pump{pump:g}mW_{_theta_tag(theta)}"
                spectra[f"{key}_raw"], spectra[f"{key}_corrected"] = pump_estimates[i]
            for j, analysis in enumerate(bands):
                analytic_linear = None if values is None else values[pump_index][i][j]
                analytic_db = None if values is None else db(analytic_linear)
                mc_db = None
                if pump_estimates is not None:
                    mc_db = db(band_power(pump_estimates[i][1], analysis, acq.band_width_mhz))
                quantity = _quantity_name(cfg.symmetric, pump, theta, analysis)
                ref = _REFERENCE_INDEX.get((cfg.name, quantity))
                model_db = mc_db if analytic_db is None else analytic_db
                rows.append(ResultRow(
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
                    passed=None if ref is None or model_db is None
                    else abs(model_db - ref.paper_value_db) <= ref.tolerance_db,
                ))
    return ScenarioResult(cfg.name, mode, acq.rng_seed, tuple(rows), spectra)


def summary_csv(result: ScenarioResult) -> str:
    """Per-run summary table: scenario,quantity,model_db,reference_db,tolerance_db,pass.

    A row with neither an analytic nor a Monte-Carlo value (a pump outside
    ``mc_pump_mw`` in Monte-Carlo mode) has an empty ``model_db`` cell.
    """
    return _csv_table(
        ["scenario", "quantity", "model_db", "reference_db", "tolerance_db", "pass"],
        ([row.scenario, row.quantity, row.model_db, row.reference_db, row.tolerance_db, row.passed]
         for row in result.rows),
    )


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
    antisqueezed (theta = pi/2) noise in dB in the first analysis band.
    Monte-Carlo columns are filled when the effective mode includes it, and
    stand in for the analytic ones in Monte-Carlo mode.  Each value stands
    at the first pump, lock offset and detection efficiency of ``cfg``, one
    of them swept.  Every value is checked in order, as the config field it
    stands for, before :func:`_evaluate` reads them all.  Monte-Carlo spectra
    cover only the analysis bands' bins, and all values share the one signal
    stream of every run, so each value reads the draws its own run would;
    that draw holds a few KB of band-only arrays per value until its rounds end.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; choose from {SWEEP_PARAMETERS}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    hd = cfg.hd
    if not cfg.symmetric:
        raise ConfigError("sweep supports scenarios with the LO matched to the state")
    mode, acq = _mode_and_acquisition(cfg, mode, seed)

    values = [float(value) for value in values]
    opos = []  # the pump axis' own pump points, else the first pump's
    for value in values:
        if parameter == "pump_mw":
            _check_real("scenario", "pump_sweep_mw", value, 0.0)
            opos.append(_opo_params(cfg, value))
            continue
        if parameter == "delta_theta_rad":
            _check_real("hd", "delta_theta_rad", value)
        else:
            _check_real("hd", "efficiency", value, 0.0, 1.0)
        if not opos:
            opos.append(_opo_params(cfg, cfg.pump_sweep_mw[0]))
    # The axes not swept hold one entry, which every value shares.
    offsets = values if parameter == "delta_theta_rad" else [hd.delta_theta_rad]
    etas = values if parameter == "hd_efficiency" else [hd.efficiency]
    linear, estimates, _ = _evaluate(cfg, mode, acq, opos, offsets, etas, (0.0, math.pi / 2),
                                     [True], whole_grid=False)
    analytic_db = [None] * len(values)
    if linear is not None:
        analytic_db = [[db(bands[0]) for bands in point] for point in linear]

    records = []
    for value, analytic, estimate in zip(values, analytic_db, estimates):
        mc = None
        if estimate is not None:
            mc = [db(band_power(corrected, hd.analysis_mhz[0], acq.band_width_mhz))
                  for _, corrected in estimate]
        squeezed, antisqueezed = mc if analytic is None else analytic
        record = {
            "parameter": parameter,
            "value": value,
            "squeezed_db": squeezed,
            "antisqueezed_db": antisqueezed,
        }
        if mc is not None:
            record["squeezed_mc_db"], record["antisqueezed_mc_db"] = mc
        records.append(record)
    return records


def sweep_csv(records: Sequence[dict]) -> str:
    header = list(records[0])
    return _csv_table(header, ([rec[key] for key in header] for rec in records))


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------

def _builtins() -> tuple[ScenarioConfig, ...]:
    """fig4a, fig4b, fig5a, fig5b and fig5c: one setup read three ways, each
    scenario after fig4a built from another by ``replace``, which re-runs
    every check."""
    fig4a = ScenarioConfig(
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
    # The 0.713 propagation factor folds the source escape efficiency
    # together with the fiber path to the tuner input, so the source spec
    # carries escape 1.0 here and the budget matches the listed factors.
    tuner_head = (
        SourceSpec(escape_efficiency=1.0),
        LossSpec("propagation to tuner input (incl. source escape)", 0.713),
        AbiSpec(shift_mhz=80.0, zeta=0.91, visibility=1.0, phi_rad=0.0),
        LossSpec("tuner-to-detector coupling", 0.841),
    )
    fig5b = replace(
        fig4a,
        name="fig5b",
        description=(
            "Tuned state read out with the shifted LO at 450 mW pump: "
            "squeezing and antisqueezing at 1.55 MHz"
        ),
        chain=tuner_head + (replace(fig4a.hd, lo_offset_mhz=80.0),),
    )
    fig5a = replace(
        fig5b,
        name="fig5a",
        description=(
            "Tuned state read out with the carrier LO at 450 mW pump: "
            "phase-insensitive beat bands at 78.45 and 81.55 MHz, with the "
            "80 MHz drive pickup tone"
        ),
        chain=tuner_head + (
            replace(fig5b.hd, lo_offset_mhz=0.0, thetas_rad=(math.pi / 2, 0.0),
                    analysis_mhz=(81.55, 78.45), efficiency=0.806),
        ),
        acquisition=replace(fig5b.acquisition, sample_rate_msps=250.0, band_center_mhz=81.55),
        interference_tones=((80.0, 30.0),),
    )
    # The pump sweeps run Monte-Carlo at the squeezing optimum only.
    pump_sweep = {"pump_sweep_mw": tuple(float(p) for p in range(90, 811, 90)),
                  "mc_pump_mw": (270.0,)}
    fig4b = replace(
        fig4a,
        name="fig4b",
        description=(
            "Pump sweep of the directly measured source state; the squeezing "
            "optimum sits at 270 mW"
        ),
        **pump_sweep,
    )
    fig5c = replace(
        fig5b,
        name="fig5c",
        description=(
            "Pump sweep of the tuned state with the shifted LO; the squeezing "
            "optimum sits at 270 mW"
        ),
        **pump_sweep,
    )
    return fig4a, fig4b, fig5a, fig5b, fig5c


BUILTIN_SCENARIOS: dict[str, ScenarioConfig] = {cfg.name: cfg for cfg in _builtins()}


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

def _to_json(value):
    """A config value as JSON data: tuples as lists, and a spec as an object
    of its fields in field order, led by its kind if it is a chain element."""
    if isinstance(value, tuple):
        return [_to_json(item) for item in value]
    if not is_dataclass(value):
        return value
    head = {"kind": _CLASS_TO_KIND[type(value)]} if type(value) in _CLASS_TO_KIND else {}
    return head | {field.name: _to_json(getattr(value, field.name)) for field in fields(value)}


def _tuples(value):
    """JSON data with every list, nested ones too, as a tuple."""
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _from_json(cls, data, where: str, **readers):
    """``cls`` built from the JSON object ``data`` found at ``where``.

    A field named in ``readers`` is read by its reader, any other with its
    lists as tuples, and a field left out takes its dataclass default.  A
    key that names no field, or a left-out field without a default, is a
    ConfigError naming the key and ``where``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    names = [field.name for field in fields(cls)]
    for key in data:
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in {where}")
    for field in fields(cls):
        if field.name not in data and field.default is MISSING:
            raise ConfigError(f"missing key {field.name!r} in {where}")
    return cls(**{key: readers.get(key, _tuples)(value) for key, value in data.items()})


def _element_from_json(position: int, data) -> ComponentSpec:
    """Chain element ``position`` from its JSON object, whose ``kind`` names its spec."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in _KIND_TO_CLASS:
        raise ConfigError(
            f"unknown chain element kind {kind!r} at chain element {position}; "
            f"choose from {', '.join(_KIND_TO_CLASS)}"
        )
    values = {key: value for key, value in data.items() if key != "kind"}
    return _from_json(_KIND_TO_CLASS[kind], values, f"chain element {position} ({kind})")


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """The config as JSON data: every field in field order (see :func:`_to_json`)."""
    return _to_json(cfg)


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """The config of JSON data such as :func:`scenario_to_dict` writes; a
    left-out field takes its default, and ``description`` reads as ""."""
    try:
        return _from_json(
            ScenarioConfig, {"description": "", **data}, "the config's top level",
            chain=lambda elements: tuple(_element_from_json(*item) for item in enumerate(elements)),
            acquisition=lambda acq: _from_json(AcquisitionParams, acq, "acquisition"),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid scenario config: {exc}") from None


def json_text(data) -> str:
    """JSON text as every output file holds it: indented by 2, one final newline."""
    return json.dumps(data, indent=2) + "\n"


def save_config(cfg: ScenarioConfig, path: str | Path) -> None:
    Path(path).write_text(json_text(scenario_to_dict(cfg)))


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read as UTF-8 text: {exc}") from None
    return scenario_from_dict(data)
