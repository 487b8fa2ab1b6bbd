"""
Multimode zero-mean Gaussian states over labeled optical frequency modes.

Modes are identified by their detuning from the optical carrier, kept as
exact integers (Hz) so that label comparison and covariance indexing never
suffer floating-point mismatch.  Covariance matrices use the interleaved
quadrature order (X1, P1, ..., Xn, Pn) and are normalized so that the
vacuum state has unit variance in every quadrature: shot-noise level = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

# Label grid: detunings live on a 10 kHz lattice.
GRID_HZ = 10_000

# Numerical tolerances (absolute, on matrix entries / eigenvalues).
SYMMETRY_TOL = 1e-12
SYMPLECTIC_TOL = 1e-12
UNCERTAINTY_SLACK = 1e-9


@dataclass(frozen=True, order=True)
class ModeLabel:
    """Discrete frequency mode, identified by its detuning from the carrier."""

    detuning_hz: int

    def __post_init__(self) -> None:
        if not isinstance(self.detuning_hz, (int, np.integer)):
            raise TypeError(f"detuning must be an integer number of Hz, got {self.detuning_hz!r}")
        object.__setattr__(self, "detuning_hz", int(self.detuning_hz))

    @classmethod
    def from_mhz(cls, detuning_mhz: float) -> "ModeLabel":
        """Build a label from a detuning in MHz, snapping to the label grid.

        Raises ValueError if the value is farther than 1e-6 relative from a
        grid point, since silent snapping would hide configuration typos, or
        if it is not a finite number of grid steps.
        """
        raw = detuning_mhz * 1e6 / GRID_HZ
        if not math.isfinite(raw):
            raise ValueError(f"detuning {detuning_mhz} MHz is not a finite number of grid steps")
        steps = round(raw)
        if abs(raw - steps) > 1e-6 * max(1.0, abs(raw)):
            raise ValueError(
                f"detuning {detuning_mhz} MHz is not on the {GRID_HZ / 1e3:g} kHz label grid"
            )
        return cls(steps * GRID_HZ)

    @property
    def mhz(self) -> float:
        return self.detuning_hz / 1e6

    def shifted_mhz(self, delta_mhz: float) -> "ModeLabel":
        """Label at this detuning plus ``delta_mhz`` (exact grid arithmetic)."""
        return ModeLabel(self.detuning_hz + ModeLabel.from_mhz(delta_mhz).detuning_hz)

    def __repr__(self) -> str:
        return f"ModeLabel({self.mhz:+g} MHz)"


def _check_modes(modes: Sequence[ModeLabel]) -> tuple[ModeLabel, ...]:
    modes = tuple(modes)
    if not modes:
        raise ValueError("mode list must not be empty")
    if len(set(modes)) != len(modes):
        dupes = sorted({m for m in modes if sum(1 for x in modes if x == m) > 1})
        raise ValueError(f"duplicate mode labels: {dupes}")
    return modes


def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """Symplectic form J for n modes in interleaved (X1,P1,...) order: the
    block [[0, 1], [-1, 0]] on each mode."""
    j = np.zeros((2 * n_modes, 2 * n_modes))
    j[0::2, 1::2] = np.eye(n_modes)
    j[1::2, 0::2] = -np.eye(n_modes)
    return j


@dataclass(frozen=True)
class GaussianState:
    """Zero-mean Gaussian state: ordered mode labels plus covariance matrix.

    The covariance matrix is 2n x 2n, symmetric within ``SYMMETRY_TOL``,
    vacuum-normalized (vacuum = identity).  Instances are immutable; all
    operations return new states.
    """

    modes: tuple[ModeLabel, ...]
    cov: NDArray[np.float64] = field(repr=False)

    def __post_init__(self) -> None:
        modes = _check_modes(self.modes)
        cov = np.asarray(self.cov, dtype=float)
        n = len(modes)
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(f"covariance shape {cov.shape} does not match {n} modes")
        if np.abs(cov - cov.T).max() > SYMMETRY_TOL:
            raise ValueError("covariance matrix is not symmetric within tolerance")
        cov = (cov + cov.T) / 2.0
        cov.flags.writeable = False
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def index(self, mode: ModeLabel) -> int:
        try:
            return self.modes.index(mode)
        except ValueError:
            raise ValueError(f"mode {mode} not present in state {self.modes}") from None


@dataclass(frozen=True)
class SymplecticOp:
    """Lossless Gaussian operation: a symplectic matrix acting on the
    quadratures of ``modes`` (in that order)."""

    matrix: NDArray[np.float64]
    modes: tuple[ModeLabel, ...]

    def __post_init__(self) -> None:
        modes = _check_modes(self.modes)
        mat = np.array(self.matrix, dtype=float)  # a copy, frozen below
        n = len(modes)
        if mat.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix shape {mat.shape} does not match {n} modes")
        j = symplectic_form(n)
        if np.abs(mat @ j @ mat.T - j).max() > SYMPLECTIC_TOL:
            raise ValueError("matrix is not symplectic within tolerance")
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "modes", modes)


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Apply a symplectic op to the state: cov -> S cov S^T on the block of its modes."""
    positions = [state.index(m) for m in op.modes]
    idx = np.concatenate([[2 * p, 2 * p + 1] for p in positions])
    full = np.eye(2 * state.n_modes)
    full[np.ix_(idx, idx)] = op.matrix
    return GaussianState(state.modes, full @ state.cov @ full.T)


def apply_uniform_loss(
    state: GaussianState, eta: float, modes: Sequence[ModeLabel] | None = None
) -> GaussianState:
    """Pure loss channel of efficiency eta on each listed mode (default: all).

    One step: the listed modes' rows, then their columns, are scaled by
    sqrt(eta) and 1 - eta is added to their diagonal.  Every entry sees the
    same operations in the same order as under one single-mode loss per mode.
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


def apply_loss(state: GaussianState, mode: ModeLabel, eta: float) -> GaussianState:
    """Pure loss channel of efficiency eta on one mode."""
    return apply_uniform_loss(state, eta, (mode,))


def partial_trace(state: GaussianState, keep: Sequence[ModeLabel]) -> GaussianState:
    """Restrict the state to ``keep`` (in the given order), discarding the rest."""
    keep = _check_modes(keep)
    idx = [2 * state.index(m) + q for m in keep for q in (0, 1)]
    return GaussianState(keep, state.cov[idx][:, idx])


def add_vacuum_modes(state: GaussianState, new_modes: Sequence[ModeLabel]) -> GaussianState:
    """Extend the state with uncorrelated vacuum modes appended at the end."""
    new_modes = tuple(new_modes)
    if not new_modes:
        return state
    _check_modes(tuple(state.modes) + new_modes)
    n_old, n_new = state.n_modes, len(new_modes)
    cov = np.eye(2 * (n_old + n_new))
    cov[: 2 * n_old, : 2 * n_old] = state.cov
    return GaussianState(state.modes + new_modes, cov)


def symplectic_eigenvalues(state: GaussianState) -> NDArray[np.float64]:
    """Symplectic eigenvalues of the covariance matrix (>= 1 for physical states)."""
    ev = np.linalg.eigvals(symplectic_form(state.n_modes) @ state.cov)
    return np.sort(np.abs(ev.imag))[1::2]


def is_physical(state: GaussianState, slack: float = UNCERTAINTY_SLACK) -> bool:
    """Uncertainty-principle check: every symplectic eigenvalue >= 1 - slack."""
    return bool(symplectic_eigenvalues(state).min() >= 1.0 - slack)


def check_unitary(unitary: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """``unitary`` as a complex array, checked square and unitary within 1e-12."""
    u = np.asarray(unitary, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("unitary must be square")
    if np.abs(u @ u.conj().T - np.eye(n)).max() > 1e-12:
        raise ValueError("matrix is not unitary within tolerance")
    return u


def real_form(transfer: NDArray[np.complex128]) -> NDArray[np.float64]:
    """Quadrature form of a square mode transfer a' = M a.

    For M = A + iB, quadratures map as X' = A X - B P and P' = B X + A P,
    giving 2x2 blocks [[A, -B], [B, A]] per mode pair.
    """
    n = len(transfer)
    mat = np.zeros((2 * n, 2 * n))
    a, b = transfer.real, transfer.imag
    mat[0::2, 0::2] = a
    mat[1::2, 1::2] = a
    mat[0::2, 1::2] = -b
    mat[1::2, 0::2] = b
    return mat


def symplectic_from_unitary(
    unitary: NDArray[np.complex128], modes: Sequence[ModeLabel]
) -> SymplecticOp:
    """Symplectic op of a passive linear-optics unitary on annihilation
    operators, a' = U a (see :func:`real_form`)."""
    return SymplecticOp(real_form(check_unitary(unitary)), tuple(modes))
