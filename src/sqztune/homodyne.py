"""
Frequency-domain homodyne detection model.

A balanced detector with its local oscillator at ``lo`` and electronic
analysis frequency ``nu`` reads out the sideband pair at lo +- nu.  The
noise power in SNL units is the phase-weighted sum of the pair's symmetric
and antisymmetric quadrature combinations; vacuum gives exactly 1.
The pair of a chain's response, detected at unit efficiency, gives the two
gains through which any source's excess noise reads out
(:meth:`DetectedPair.gains`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian_core import (
    GaussianState,
    ModeLabel,
    add_vacuum_modes,
    apply_uniform_loss,
    partial_trace,
)

SQUEEZED = "squeezed"
ANTISQUEEZED = "antisqueezed"


def db(value: float) -> float:
    """Linear power ratio -> dB (10 log10)."""
    if value <= 0:
        raise ValueError(f"dB undefined for non-positive value {value}")
    return 10.0 * math.log10(value)


def undb(value_db: float) -> float:
    """dB -> linear power ratio."""
    return 10.0 ** (value_db / 10.0)


@dataclass(frozen=True)
class DetectedPair:
    """The sideband pair at lo +- nu of one state, after detection loss: the
    two sideband-combination variances, read with weights cos^2 / sin^2 of
    the LO phase, and their X-P cross term, so one reduction serves every phase."""

    plus_variance: float
    minus_variance: float
    cross_term: float

    def gains(self, theta_eff: float) -> tuple[float, float]:
        """Gains (a, b) at the effective LO phase of this pair taken as a
        chain's response (detected at unit efficiency from vs = 2, va = 1).

        Gaussian channels are affine in the input covariance and passive
        elements commute with a global phase rotation, so a source (vs, va)
        detected at efficiency eta reads 1 + eta ((vs - 1) a + (va - 1) b):
        va - 1 reads out as the response turned by pi/2.
        """
        ct, st = math.cos(theta_eff), math.sin(theta_eff)
        d_plus, d_minus = self.plus_variance - 1.0, self.minus_variance - 1.0
        sc = st * ct * self.cross_term
        return (
            d_plus + st * st * (d_minus - d_plus) + sc,
            d_minus + st * st * (d_plus - d_minus) - sc,
        )


def detect_pair(
    state: GaussianState, lo: ModeLabel, nu_mhz: float, efficiency: float = 1.0
) -> DetectedPair:
    """Reduce the state to the sideband pair read out at lo +- nu_mhz.

    Sideband modes missing from the state are treated as vacuum, which is
    exactly the situation of a frequency-shifted state read out with the
    unshifted LO.  Detection efficiency acts as a loss channel on the pair.
    """
    if not nu_mhz > 0:
        raise ValueError(f"analysis frequency must be positive, got {nu_mhz}")
    lower = lo.shifted_mhz(-nu_mhz)
    upper = lo.shifted_mhz(nu_mhz)
    missing = tuple(m for m in (lower, upper) if m not in state.modes)
    work = add_vacuum_modes(state, missing)
    pair = apply_uniform_loss(partial_trace(work, (lower, upper)), efficiency)
    c = pair.cov  # order: lower (X, P), upper (X, P)

    x_sum = 0.5 * (c[0, 0] + c[2, 2])
    p_sum = 0.5 * (c[1, 1] + c[3, 3])
    var_x_plus = x_sum + c[0, 2]
    var_x_minus = x_sum - c[0, 2]
    var_p_plus = p_sum + c[1, 3]
    var_p_minus = p_sum - c[1, 3]
    return DetectedPair(
        float(0.5 * (var_x_plus + var_p_minus)),
        float(0.5 * (var_x_minus + var_p_plus)),
        float(c[2, 1] + c[0, 3]),
    )


def hd_noise_power(
    state: GaussianState, lo: ModeLabel, nu_mhz: float, theta_eff: float, efficiency: float = 1.0
) -> float:
    """Noise power of the sideband pair at lo +- nu_mhz, in SNL units, at the
    effective LO phase ``theta_eff`` (locked phase plus lock offset)."""
    return 1.0 + detect_pair(state, lo, nu_mhz, efficiency).gains(theta_eff)[0]


def variance_from_r(r: float, eta: float, branch: str) -> float:
    """Quadrature-combination variance of an effective squeezer of strength r
    seen through efficiency eta: eta * exp(-+2r) + (1 - eta)."""
    if r < 0:
        raise ValueError("squeezing parameter must be non-negative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    if branch == SQUEEZED:
        return eta * math.exp(-2.0 * r) + (1.0 - eta)
    if branch == ANTISQUEEZED:
        return eta * math.exp(2.0 * r) + (1.0 - eta)
    raise ValueError(f"branch must be {SQUEEZED!r} or {ANTISQUEEZED!r}, got {branch!r}")


def r_from_antisqueezing(anti_db: float, eta: float) -> float:
    """Effective squeezing parameter from a measured antisqueezing level.

    Inverts the antisqueezed branch of :func:`variance_from_r`; the measured
    linear value must exceed the vacuum admixture floor (1 - eta).
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    linear = undb(anti_db)
    excess = linear - (1.0 - eta)
    if excess <= 0:
        raise ValueError(
            f"{anti_db} dB is at or below the vacuum admixture floor "
            f"{db(1.0 - eta):.2f} dB for eta = {eta}; no squeezing parameter fits"
        )
    if linear < 1.0:
        raise ValueError(f"{anti_db} dB is below shot noise; not an antisqueezing level")
    return 0.5 * math.log(excess / eta)


def asymmetric_beat_noise(r: float, eta: float, include_vacuum_half: bool = True) -> float:
    """Phase-insensitive beat noise of one squeezed-pair member plus vacuum.

    When a frequency-shifted pair is read out with the unshifted LO, each
    analysis pair holds one thermal member (variance cosh 2r through
    efficiency eta) and one vacuum mode, each entering with weight 1/2:

        eta/2 * (sinh^2 r + cosh^2 r) + (1 - eta)/2 + 1/2

    The trailing 1/2 is the vacuum member's share, which makes r = 0 return
    exactly 1 (SNL).  ``include_vacuum_half=False`` drops it and returns only
    the populated member's contribution (the excess-noise bookkeeping some
    write-ups quote).
    """
    if r < 0:
        raise ValueError("squeezing parameter must be non-negative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    value = (eta / 2.0) * (math.sinh(r) ** 2 + math.cosh(r) ** 2) + (1.0 - eta) / 2.0
    if include_vacuum_half:
        value += 0.5
    return value
