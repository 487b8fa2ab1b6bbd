"""
Optical chain elements acting on Gaussian states: below-threshold parametric
source (OPO), acousto-optic frequency shifter (AOM), the two-AOM
interferometric frequency tuner (ABI), and multiplicative efficiency budgets.

An AOM couples the mode pair (delta, delta + shift): the transmitted path
keeps its frequency while the diffracted path moves by the acoustic drive
frequency, so in the frequency-labeled mode basis the device is an ordinary
beam splitter between the two members of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .gaussian_core import (
    GaussianState,
    ModeLabel,
    SymplecticOp,
    add_vacuum_modes,
    apply_symplectic,
    symplectic_from_unitary,
)

SPLIT_NORM_TOL = 1e-12


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
        if self.bandwidth_mhz <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= self.escape_efficiency <= 1.0:
            raise ValueError("escape efficiency must be in [0, 1]")


def opo_variances(p: OpoParams, nu_mhz, eta: float):
    """Squeezed / antisqueezed sideband-pair variances in SNL units.

    Evaluates the Lorentzian-like below-threshold spectrum

        squeezed  = 1 - eta * 4x / ((1 + x)^2 + 4 (nu/nu0)^2)
        antisq.   = 1 + eta * 4x / ((1 - x)^2 + 4 (nu/nu0)^2)

    with x = sqrt(P/P_th).  ``eta`` is the overall efficiency seen by the
    measurement; ``nu_mhz`` may be a scalar or an array (vectorized).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    nu = np.asarray(nu_mhz, dtype=float)
    if np.any(nu < 0):
        raise ValueError("analysis frequency must be non-negative")
    x = np.sqrt(p.pump_mw / p.threshold_mw)
    detune = 4.0 * (nu / p.bandwidth_mhz) ** 2
    squeezed = 1.0 - eta * 4.0 * x / ((1.0 + x) ** 2 + detune)
    antisqueezed = 1.0 + eta * 4.0 * x / ((1.0 - x) ** 2 + detune)
    if np.isscalar(nu_mhz) or np.ndim(nu_mhz) == 0:
        return float(squeezed), float(antisqueezed)
    return squeezed, antisqueezed


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


def aom_transform(
    t: float, r: float, shift_mhz: float, lower: ModeLabel = ModeLabel(0)
) -> SymplecticOp:
    """Beam-splitter op of a single AOM on the mode pair (lower, lower+shift).

    Transmission keeps the frequency; diffraction moves it by the acoustic
    drive: the upper input diffracts down onto the lower output and the
    lower input diffracts up (with a sign) onto the upper output:

        out_lower = t * in_lower + r * in_upper
        out_upper = t * in_upper - r * in_lower
    """
    if abs(t * t + r * r - 1.0) > SPLIT_NORM_TOL:
        raise ValueError(f"splitting coefficients not normalized: |t|^2+|r|^2 = {t*t+r*r}")
    upper = lower.shifted_mhz(shift_mhz)
    unitary = np.array([[t, r], [-r, t]], dtype=complex)
    return symplectic_from_unitary(unitary, (lower, upper))


@dataclass(frozen=True)
class AbiParams:
    """Two-AOM interferometric frequency tuner parameters.

    ``zeta`` is the per-arm optical efficiency, ``visibility`` the fringe
    contrast of the closed interferometer, ``phi_rad`` the inter-arm phase
    (0 = complete frequency translation), and (t, r) the common splitting
    coefficients of both AOMs.
    """

    shift_mhz: float = 80.0
    zeta: float = 1.0
    visibility: float = 1.0
    phi_rad: float = 0.0
    t: float = 1.0 / np.sqrt(2.0)
    r: float = 1.0 / np.sqrt(2.0)

    def __post_init__(self) -> None:
        if abs(self.t**2 + self.r**2 - 1.0) > SPLIT_NORM_TOL:
            raise ValueError("AOM splitting coefficients must satisfy |t|^2+|r|^2 = 1")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("arm efficiency must be in [0, 1]")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError("visibility must be in [0, 1]")
        if self.shift_mhz == 0:
            raise ValueError("frequency shift must be non-zero")


def abi_efficiency(zeta: float, visibility: float) -> float:
    """Systematic efficiency of the tuner: zeta * (1 + V) / 2."""
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("arm efficiency must be in [0, 1]")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    return zeta * (1.0 + visibility) / 2.0


def abi_ideal_unitary(phi_rad: float) -> NDArray[np.complex128]:
    """Ideal 50:50 tuner as a unitary on the (lower, upper) frequency pair.

    Composition of two balanced AOMs with inter-arm phase phi on the shifted
    arm.  At phi = 0 the lower input transfers completely to the upper output
    (up to a sign) and vice versa; the port amplitudes vary as
    |1 +- exp(i phi)| / 2.
    """
    e = np.exp(1j * phi_rad)
    return np.array(
        [
            [(1.0 - e) / 2.0, (1.0 + e) / 2.0],
            [-(1.0 + e) / 2.0, (e - 1.0) / 2.0],
        ]
    )


@dataclass(frozen=True)
class AbiChannel:
    """Tuner action: lossless symplectic part plus uniform output loss."""

    op: SymplecticOp
    efficiency: float


def abi_transform(
    params: AbiParams, lowers: Sequence[ModeLabel] = (ModeLabel(0),)
) -> AbiChannel:
    """Build the tuner channel acting pairwise on (delta, delta + shift).

    Each listed lower mode and its shifted partner form an independent
    beam-splitter pair; imperfection is modeled as the ideal transform
    followed by a loss channel of efficiency zeta*(1+V)/2 on both outputs.
    """
    lowers = tuple(lowers)
    if not lowers:
        raise ValueError("at least one mode pair required")
    pair_modes: list[ModeLabel] = []
    blocks: list[NDArray[np.complex128]] = []
    e = np.exp(1j * params.phi_rad)
    t, r = params.t, params.r
    # two identical AOM splitters with the phase on the shifted arm
    m_aom = np.array([[t, r], [-r, t]], dtype=complex)
    pair_u = m_aom @ np.diag([1.0, e]) @ m_aom
    for lower in lowers:
        upper = lower.shifted_mhz(params.shift_mhz)
        pair_modes.extend([lower, upper])
        blocks.append(pair_u)
    if len(set(pair_modes)) != len(pair_modes):
        raise ValueError("tuner mode pairs overlap; choose disjoint lower modes")
    n = len(pair_modes)
    unitary = np.zeros((n, n), dtype=complex)
    for k, block in enumerate(blocks):
        unitary[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = block
    op = symplectic_from_unitary(unitary, tuple(pair_modes))
    return AbiChannel(op, abi_efficiency(params.zeta, params.visibility))


def apply_abi(
    state: GaussianState,
    params: AbiParams,
    lowers: Sequence[ModeLabel] | None = None,
) -> GaussianState:
    """Send a state through the tuner; missing pair partners enter as vacuum.

    By default every mode currently in the state is treated as a lower input
    of its own (delta, delta + shift) pair.
    """
    if lowers is None:
        lowers = state.modes
    channel = abi_transform(params, lowers)
    missing = [m for m in channel.op.input_modes if m not in state.modes]
    extended = add_vacuum_modes(state, missing)
    out = apply_symplectic(extended, channel.op)
    return apply_uniform_loss(out, channel.efficiency, channel.op.output_modes)


def apply_aom(
    state: GaussianState,
    t: float,
    r: float,
    shift_mhz: float,
    lowers: Sequence[ModeLabel] | None = None,
) -> GaussianState:
    """Send a state through one AOM; missing pair partners enter as vacuum."""
    if lowers is None:
        lowers = state.modes
    ops = [aom_transform(t, r, shift_mhz, lower) for lower in lowers]
    all_modes = [m for op in ops for m in op.input_modes]
    if len(set(all_modes)) != len(all_modes):
        raise ValueError("AOM mode pairs overlap; choose disjoint lower modes")
    out = add_vacuum_modes(state, [m for m in all_modes if m not in state.modes])
    for op in ops:
        out = apply_symplectic(out, op)
    return out


def apply_uniform_loss(
    state: GaussianState, eta: float, modes: Sequence[ModeLabel] | None = None
) -> GaussianState:
    """Apply the same loss channel to each listed mode (default: all modes).

    One step: the listed modes' rows, then their columns, are scaled by
    sqrt(eta) and 1 - eta is added to their diagonal.  Every entry sees the
    same operations in the same order as under one :func:`apply_loss` per
    mode, so the result is the same bit for bit.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {eta}")
    modes = state.modes if modes is None else tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes in {modes}")
    if not modes:
        return state
    idx = np.array([2 * state.index(m) + q for m in modes for q in (0, 1)])
    cov = state.cov.copy()
    root = np.sqrt(eta)
    cov[idx, :] *= root
    cov[:, idx] *= root
    cov[idx, idx] += 1.0 - eta
    return GaussianState(state.modes, cov)


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
