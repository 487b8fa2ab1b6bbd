"""
Optical chain elements: below-threshold parametric source (OPO),
acousto-optic frequency shifter (AOM), the two-AOM interferometric frequency
tuner (ABI), and :func:`chain_efficiency`.  The passive elements act on a
Gaussian state's covariance or on a chain's transfer map
(:data:`TransferMap`), by the same pairing rule (:func:`_partners`).

An AOM couples the mode pair (delta, delta + shift): the transmitted path
keeps its frequency while the diffracted path moves by the acoustic drive
frequency, so in the frequency-labeled mode basis the device is an ordinary
beam splitter between the two members of the pair.  Each frequency shifter
is described only by its 2x2 pair unitary (:func:`aom_unitary`,
:func:`abi_ideal_unitary`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .gaussian_core import (
    GaussianState,
    ModeLabel,
    add_vacuum_modes,
    apply_symplectic,
    apply_uniform_loss,
    check_unitary,
    symplectic_from_unitary,
)

SPLIT_NORM_TOL = 1e-12
# The Lorentzian's 4 (nu/nu0)^2 overflows near nu/nu0 = 1e154.  Scenarios
# read the source at most 2e6 MHz from its carrier (scenarios.MAX_DETUNING_MHZ
# plus twice the Nyquist frequency under timeseries.MAX_SAMPLE_RATE_MSPS),
# where a bandwidth of at least 1 Hz keeps the term below 2e25.
MIN_BANDWIDTH_MHZ = 1e-6


@dataclass(frozen=True)
class OpoParams:
    """Below-threshold parametric source parameters.

    Parameters
    ----------
    pump_mw:
        Pump power in mW; must stay below threshold.
    threshold_mw:
        Oscillation threshold power (default 980 mW).
    bandwidth_mhz:
        Cavity bandwidth, the half-width scale of the squeezing spectrum
        (default 15.6 MHz).
    escape_efficiency:
        Fraction of intracavity squeezing that leaves through the output
        coupler; applied inside :func:`opo_sideband_state`.
    """

    pump_mw: float
    threshold_mw: float = 980.0
    bandwidth_mhz: float = 15.6
    escape_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.threshold_mw <= 0:
            raise ValueError("threshold power must be positive")
        if not 0.0 <= self.pump_mw:
            raise ValueError("pump power must be non-negative")
        if self.pump_mw >= self.threshold_mw:
            raise ValueError(
                f"pump {self.pump_mw} mW is at or above threshold {self.threshold_mw} mW; "
                "the below-threshold model does not apply"
            )
        if not self.bandwidth_mhz >= MIN_BANDWIDTH_MHZ:
            raise ValueError(f"bandwidth must be at least {MIN_BANDWIDTH_MHZ:g} MHz")
        if not 0.0 <= self.escape_efficiency <= 1.0:
            raise ValueError("escape efficiency must be in [0, 1]")


def opo_variances(p: OpoParams | Sequence[OpoParams], nu_mhz, eta: float):
    """Squeezed / antisqueezed sideband-pair variances in SNL units.

    Evaluates the Lorentzian-like below-threshold spectrum

        squeezed  = 1 - eta * 4x / ((1 + x)^2 + 4 (nu/nu0)^2)
        antisq.   = 1 + eta * 4x / ((1 - x)^2 + 4 (nu/nu0)^2)

    with x = sqrt(P/P_th).  ``eta`` is the overall efficiency seen by the
    measurement; ``nu_mhz`` may be a scalar or an array (vectorized).  ``p``
    may also be a sequence of sources, read at one scalar ``nu_mhz``: the
    variances are then arrays over the sources, each equal to its own call.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    nu = np.asarray(nu_mhz, dtype=float)
    if (nu < 0).any():
        raise ValueError("analysis frequency must be non-negative")
    if isinstance(p, OpoParams):
        x, plus, minus, detune = _opo_terms(p, nu)
    else:
        if nu.ndim:
            raise ValueError("a sequence of sources is read at one scalar detuning")
        terms = np.array([_opo_terms(source, nu) for source in p], dtype=float)
        x, plus, minus, detune = terms.reshape(-1, 4).T
    squeezed = 1.0 - eta * 4.0 * x / (plus + detune)
    antisqueezed = 1.0 + eta * 4.0 * x / (minus + detune)
    if isinstance(p, OpoParams) and nu.ndim == 0:
        return float(squeezed), float(antisqueezed)
    return squeezed, antisqueezed


def _opo_terms(p: OpoParams, nu):
    """(x, (1 + x)^2, (1 - x)^2, 4 (nu/nu0)^2) of one source.  The squares
    are scalar powers, taken per source: numpy squares an array by
    multiplication, which differs from the scalar power in the last bit for
    about one value in a thousand."""
    x = np.sqrt(p.pump_mw / p.threshold_mw)
    return x, (1.0 + x) ** 2, (1.0 - x) ** 2, 4.0 * (nu / p.bandwidth_mhz) ** 2


def sideband_pair_state(vs: float, va: float, nu_mhz: float) -> GaussianState:
    """Two-mode state of the sideband pair at carrier detunings -nu and +nu
    whose symmetric X and antisymmetric P combinations have variance ``vs``
    and the other two combinations ``va``."""
    if nu_mhz <= 0:
        raise ValueError("sideband state needs nu > 0 (distinct sideband labels)")
    diag = (vs + va) / 2.0
    cx = (vs - va) / 2.0
    lower = ModeLabel.from_mhz(-nu_mhz)
    upper = ModeLabel.from_mhz(nu_mhz)
    cov = np.array(
        [
            [diag, 0.0, cx, 0.0],
            [0.0, diag, 0.0, -cx],
            [cx, 0.0, diag, 0.0],
            [0.0, -cx, 0.0, diag],
        ]
    )
    return GaussianState((lower, upper), cov)


def opo_sideband_state(p: OpoParams, nu_mhz: float) -> GaussianState:
    """Two-mode state of the sideband pair at carrier detunings -nu and +nu.

    The symmetric X combination and antisymmetric P combination are squeezed;
    only the escape efficiency is folded in here, downstream losses are
    separate chain elements.
    """
    return sideband_pair_state(*opo_variances(p, nu_mhz, p.escape_efficiency), nu_mhz)


def aom_unitary(t: float, r: float) -> NDArray[np.complex128]:
    """Beam-splitter unitary of a single AOM on the mode pair (lower, lower+shift).

    Transmission keeps the frequency; diffraction moves it by the acoustic
    drive: the upper input diffracts down onto the lower output and the
    lower input diffracts up (with a sign) onto the upper output:

        out_lower = t * in_lower + r * in_upper
        out_upper = t * in_upper - r * in_lower
    """
    if abs(t * t + r * r - 1.0) > SPLIT_NORM_TOL:
        raise ValueError(f"splitting coefficients not normalized: |t|^2+|r|^2 = {t*t+r*r}")
    return np.array([[t, r], [-r, t]], dtype=complex)


def abi_efficiency(zeta: float, visibility: float) -> float:
    """Systematic efficiency of the tuner: zeta * (1 + V) / 2."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("arm efficiency must be in [0, 1]")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    return zeta * (1.0 + visibility) / 2.0


def abi_ideal_unitary(phi_rad: float) -> NDArray[np.complex128]:
    """Ideal 50:50 tuner as a unitary on the (lower, upper) frequency pair.

    Closed form of two balanced AOMs with inter-arm phase phi on the shifted
    arm, aom_unitary(s, s) @ diag(1, exp(i phi)) @ aom_unitary(s, s) with
    s = 1/sqrt(2).  At phi = 0 the lower input transfers completely to the
    upper output (up to a sign) and vice versa; the port amplitudes vary as
    |1 +- exp(i phi)| / 2.
    """
    e = np.exp(1j * phi_rad)
    return np.array(
        [
            [(1.0 - e) / 2.0, (1.0 + e) / 2.0],
            [-(1.0 + e) / 2.0, (e - 1.0) / 2.0],
        ]
    )


def _partners(modes: tuple[ModeLabel, ...], shift_mhz: float) -> tuple[ModeLabel, ...]:
    """The ``+shift`` partner of each mode, the upper member of that mode's
    pair.  A partner that is already a mode would sit in two pairs, so it is
    rejected."""
    present = set(modes)
    uppers = tuple(m.shifted_mhz(shift_mhz) for m in modes)
    overlap = [m for m in uppers if m in present]
    if overlap:
        raise ValueError(f"mode pairs overlap: {overlap[0]} is a mode and a shifted partner")
    return uppers


def _couple_pairs(
    state: GaussianState, u: NDArray[np.complex128], shift_mhz: float
) -> GaussianState:
    """Couple every mode with its ``+shift`` partner through the pair unitary ``u``.

    Each mode of the state is the lower input of its own (delta, delta +
    shift) pair.  The partners (:func:`_partners`, which rejects an overlap)
    enter as vacuum modes appended in the same order, and every pair takes
    ``u`` at once: the block-diagonal unitary np.kron(I, u), applied as one
    symplectic op.
    """
    uppers = _partners(state.modes, shift_mhz)
    pair_modes = [mode for pair in zip(state.modes, uppers) for mode in pair]
    op = symplectic_from_unitary(np.kron(np.eye(len(uppers)), u), pair_modes)
    return apply_symplectic(add_vacuum_modes(state, uppers), op)


# A passive chain's transfer map: each mode's complex amplitudes from the
# source sideband pair (-nu, +nu).  A mode absent from the map carries none.
TransferMap = dict[ModeLabel, NDArray[np.complex128]]


def attenuate_response(response: TransferMap, eta: float) -> TransferMap:
    """The map after a loss of efficiency ``eta`` on every mode: each
    amplitude times sqrt(eta)."""
    root = np.sqrt(eta)
    return {mode: amplitude * root for mode, amplitude in response.items()}


def couple_response(
    response: TransferMap, u: NDArray[np.complex128], shift_mhz: float
) -> TransferMap:
    """The map after the pair unitary ``u`` on every (mode, mode + shift) pair,
    as :func:`_couple_pairs` couples a state: the partners enter with no
    amplitude, so entry m goes to m times u[0, 0] and to its partner times
    u[1, 0].  Every partner is entered, and ``u`` is checked once."""
    u = check_unitary(u)
    uppers = _partners(tuple(response), shift_mhz)
    amplitudes = list(response.values())
    return dict(zip(tuple(response) + uppers,
                    [u[0, 0] * a for a in amplitudes] + [u[1, 0] * a for a in amplitudes]))


def apply_aom(state: GaussianState, t: float, r: float, shift_mhz: float) -> GaussianState:
    """Send a state through one AOM; missing pair partners enter as vacuum."""
    return _couple_pairs(state, aom_unitary(t, r), shift_mhz)


def apply_abi(
    state: GaussianState, shift_mhz: float, zeta: float, visibility: float, phi_rad: float
) -> GaussianState:
    """Send a state through the tuner; missing pair partners enter as vacuum.

    The ideal tuner at inter-arm phase ``phi_rad`` (0 = complete frequency
    translation) is followed by the loss :func:`abi_efficiency` of the per-arm
    efficiency ``zeta`` and fringe ``visibility`` on every coupled mode.
    """
    eta = abi_efficiency(zeta, visibility)
    return apply_uniform_loss(_couple_pairs(state, abi_ideal_unitary(phi_rad), shift_mhz), eta)


EfficiencyChain = Sequence[tuple[str, float]]


def chain_efficiency(chain: EfficiencyChain) -> float:
    """Product of the labeled efficiency factors of a detection budget."""
    chain = list(chain)
    if not chain:
        raise ValueError("efficiency chain must not be empty")
    total = 1.0
    for label, value in chain:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"efficiency {label!r} = {value} outside [0, 1]")
        total *= value
    return total
