"""Independent references the tests compare sqztune against.

No command of the package runs these: they build states, records and
budgets the long way, so that a test can check the production path's
answer against them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from sqztune.gaussian_core import GaussianState, ModeLabel, SymplecticOp, apply_uniform_loss
from sqztune.homodyne import DetectedPair, detect_pair
from sqztune.optics_components import abi_efficiency, apply_abi, apply_aom, sideband_pair_state
from sqztune.scenarios import AbiSpec, ConfigError, LossSpec, ScenarioConfig
from sqztune.timeseries import AcquisitionParams, SpectrumEstimate, periodogram


# ---------------------------------------------------------------------------
# Gaussian states
# ---------------------------------------------------------------------------

def vacuum_state(modes: Sequence[ModeLabel]) -> GaussianState:
    """Vacuum on the given modes: identity covariance (SNL = 1)."""
    modes = tuple(modes)
    return GaussianState(modes, np.eye(2 * len(modes)))


def mode_block(state: GaussianState, mode: ModeLabel) -> NDArray[np.float64]:
    """2x2 covariance block of a single mode."""
    i = 2 * state.index(mode)
    return state.cov[i : i + 2, i : i + 2].copy()


def quadrature_variance(state: GaussianState, mode: ModeLabel, theta: float) -> float:
    """Variance of the rotated quadrature X_theta = cos(theta) X + sin(theta) P."""
    c = mode_block(state, mode)
    ct, st = np.cos(theta), np.sin(theta)
    return float(ct * ct * c[0, 0] + st * st * c[1, 1] + 2.0 * st * ct * c[0, 1])


def squeezer(r: float, mode: ModeLabel) -> SymplecticOp:
    """Single-mode squeezer: X -> exp(-r) X, P -> exp(r) P."""
    mat = np.diag([np.exp(-r), np.exp(r)])
    return SymplecticOp(mat, (mode,))


def phase_rotation(phi: float, mode: ModeLabel) -> SymplecticOp:
    """Optical phase shift a -> exp(i phi) a."""
    c, s = np.cos(phi), np.sin(phi)
    return SymplecticOp(np.array([[c, -s], [s, c]]), (mode,))


def two_mode_squeezer(r: float, mode_a: ModeLabel, mode_b: ModeLabel) -> SymplecticOp:
    """Two-mode squeezer whose (X_a+X_b) and (P_a-P_b) combinations are squeezed."""
    ch, sh = np.cosh(r), np.sinh(r)
    mat = np.array(
        [
            [ch, 0.0, -sh, 0.0],
            [0.0, ch, 0.0, sh],
            [-sh, 0.0, ch, 0.0],
            [0.0, sh, 0.0, ch],
        ]
    )
    return SymplecticOp(mat, (mode_a, mode_b))


# ---------------------------------------------------------------------------
# Spectra
# ---------------------------------------------------------------------------

def estimate_spectrum(
    traces: Sequence[NDArray[np.float64]], acq: AcquisitionParams
) -> SpectrumEstimate:
    """Mean periodogram over rounds with round-to-round standard error."""
    traces = list(traces)
    if not traces:
        raise ValueError("at least one trace required")
    lengths = {len(t) for t in traces}
    if lengths != {acq.samples_per_round}:
        raise ValueError(
            f"trace lengths {sorted(lengths)} inconsistent with "
            f"samples_per_round={acq.samples_per_round}"
        )
    grams = np.stack([periodogram(t) for t in traces])
    mean = grams.mean(axis=0)
    if len(traces) > 1:
        stderr = grams.std(axis=0, ddof=1) / np.sqrt(len(traces))
    else:
        stderr = np.zeros_like(mean)
    return SpectrumEstimate(acq.grid_mhz, mean, stderr)


def mean_power(spec: SpectrumEstimate) -> float:
    """Time-domain mean-square power implied by the one-sided spectrum."""
    n = 2 * (spec.psd.size - 1)
    return float((spec.psd[0] + 2.0 * spec.psd[1:-1].sum() + spec.psd[-1]) / n)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

def chain_efficiency_total(cfg: ScenarioConfig) -> float:
    """Product of every efficiency factor from source escape to detection."""
    eta = cfg.source.escape_efficiency * cfg.hd.efficiency
    for element in cfg.chain[1:-1]:
        if isinstance(element, LossSpec):
            eta *= element.efficiency
        elif isinstance(element, AbiSpec):
            eta *= abi_efficiency(element.zeta, element.visibility)
    return eta


def covariance_response_pairs(cfg: ScenarioConfig) -> list[DetectedPair]:
    """The pair of each analysis band the long way: the response source
    (vs = 2, va = 1) propagated as a covariance through every mid-chain
    element, then detected at unit efficiency.

    The chain is walked here, element by element, with the public
    ``apply_uniform_loss``, ``apply_aom`` and ``apply_abi``, so a mistake in
    the runner's own walk shows as a gap to this one.  A shift whose mode
    pairs overlap is a ConfigError in the runner's words.
    """
    state = sideband_pair_state(2.0, 1.0, cfg.source_detuning_mhz)
    for position, element in enumerate(cfg.chain[1:-1], start=1):
        if isinstance(element, LossSpec):
            state = apply_uniform_loss(state, element.efficiency)
            continue
        try:
            if isinstance(element, AbiSpec):
                state = apply_abi(state, element.shift_mhz, element.zeta, element.visibility,
                                  element.phi_rad)
            else:
                state = apply_aom(state, element.t, element.r, element.shift_mhz)
        except ValueError as exc:
            kind = "abi" if isinstance(element, AbiSpec) else "aom"
            raise ConfigError(
                f"chain element {position} ({kind}, shift {element.shift_mhz:g} MHz): {exc}"
            ) from None
    lo = ModeLabel.from_mhz(cfg.hd.lo_offset_mhz)
    return [detect_pair(state, lo, analysis) for analysis in cfg.hd.analysis_mhz]
