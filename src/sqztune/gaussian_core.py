"""
Multimode zero-mean Gaussian states over labeled optical frequency modes.

Modes are identified by their detuning from the optical carrier, kept as
exact integers (Hz) so that label comparison and covariance indexing never
suffer floating-point mismatch.  Covariance matrices use the interleaved
quadrature order (X1, P1, ..., Xn, Pn) and are normalized so that the
vacuum state has unit variance in every quadrature: shot-noise level = 1.
"""

from __future__ import annotations

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
        grid point; silent snapping would hide configuration typos.
        """
        raw = detuning_mhz * 1e6 / GRID_HZ
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
    """Symplectic form J for n modes in interleaved (X1,P1,...) order."""
    j2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return np.kron(np.eye(n_modes), j2)


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
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
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

    def mode_block(self, mode: ModeLabel) -> NDArray[np.float64]:
        """2x2 covariance block of a single mode."""
        i = 2 * self.index(mode)
        return self.cov[i : i + 2, i : i + 2].copy()


def vacuum_state(modes: Sequence[ModeLabel]) -> GaussianState:
    """Vacuum on the given modes: identity covariance (SNL = 1)."""
    modes = _check_modes(modes)
    return GaussianState(modes, np.eye(2 * len(modes)))


@dataclass(frozen=True)
class SymplecticOp:
    """Lossless Gaussian operation: symplectic matrix plus mode relabeling.

    ``matrix`` acts on the quadratures of ``input_modes`` (in that order);
    after application the labels are replaced by ``output_modes``, which is
    how frequency-shifting elements express their relabeling.
    """

    matrix: NDArray[np.float64]
    input_modes: tuple[ModeLabel, ...]
    output_modes: tuple[ModeLabel, ...]

    def __post_init__(self) -> None:
        ins = _check_modes(self.input_modes)
        outs = _check_modes(self.output_modes)
        mat = np.asarray(self.matrix, dtype=float)
        n = len(ins)
        if len(outs) != n:
            raise ValueError("input and output mode lists must have equal length")
        if mat.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix shape {mat.shape} does not match {n} modes")
        j = symplectic_form(n)
        if np.max(np.abs(mat @ j @ mat.T - j)) > SYMPLECTIC_TOL:
            raise ValueError("matrix is not symplectic within tolerance")
        mat = mat.copy()
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "input_modes", ins)
        object.__setattr__(self, "output_modes", outs)

    def compose(self, other: "SymplecticOp") -> "SymplecticOp":
        """Op equal to applying ``other`` first, then ``self``."""
        if self.input_modes != other.output_modes:
            raise ValueError("ops are not composable: mode lists do not match")
        return SymplecticOp(self.matrix @ other.matrix, other.input_modes, self.output_modes)


def apply_symplectic(state: GaussianState, op: SymplecticOp) -> GaussianState:
    """Apply a symplectic op to the state (cov -> S cov S^T on its block).

    Modes not touched by the op are unchanged; the op's input labels are
    replaced in place by its output labels.
    """
    positions = [state.index(m) for m in op.input_modes]
    idx = np.concatenate([[2 * p, 2 * p + 1] for p in positions])
    full = np.eye(2 * state.n_modes)
    full[np.ix_(idx, idx)] = op.matrix
    new_cov = full @ state.cov @ full.T
    new_modes = list(state.modes)
    for p, out in zip(positions, op.output_modes):
        new_modes[p] = out
    return GaussianState(tuple(new_modes), new_cov)


def apply_loss(state: GaussianState, mode: ModeLabel, eta: float) -> GaussianState:
    """Pure loss channel of efficiency eta on one mode.

    The mode's block becomes eta*C + (1-eta)*I and its correlations with
    every other mode are scaled by sqrt(eta).
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"efficiency must be in [0, 1], got {eta}")
    p = state.index(mode)
    sl = slice(2 * p, 2 * p + 2)
    cov = state.cov.copy()
    root = np.sqrt(eta)
    cov[sl, :] *= root
    cov[:, sl] *= root
    cov[sl, sl] += (1.0 - eta) * np.eye(2)
    return GaussianState(state.modes, cov)


def quadrature_variance(state: GaussianState, mode: ModeLabel, theta: float) -> float:
    """Variance of the rotated quadrature X_theta = cos(theta) X + sin(theta) P."""
    c = state.mode_block(mode)
    ct, st = np.cos(theta), np.sin(theta)
    return float(ct * ct * c[0, 0] + st * st * c[1, 1] + 2.0 * st * ct * c[0, 1])


def partial_trace(state: GaussianState, keep: Sequence[ModeLabel]) -> GaussianState:
    """Restrict the state to ``keep`` (in the given order), discarding the rest."""
    keep = _check_modes(keep)
    positions = [state.index(m) for m in keep]
    idx = np.concatenate([[2 * p, 2 * p + 1] for p in positions])
    return GaussianState(keep, state.cov[np.ix_(idx, idx)])


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


# ---------------------------------------------------------------------------
# Standard symplectic building blocks
# ---------------------------------------------------------------------------

def identity_op(modes: Sequence[ModeLabel]) -> SymplecticOp:
    modes = _check_modes(modes)
    return SymplecticOp(np.eye(2 * len(modes)), modes, modes)


def squeezer(r: float, mode: ModeLabel) -> SymplecticOp:
    """Single-mode squeezer: X -> exp(-r) X, P -> exp(r) P."""
    mat = np.diag([np.exp(-r), np.exp(r)])
    return SymplecticOp(mat, (mode,), (mode,))


def phase_rotation(phi: float, mode: ModeLabel) -> SymplecticOp:
    """Optical phase shift a -> exp(i phi) a."""
    c, s = np.cos(phi), np.sin(phi)
    return SymplecticOp(np.array([[c, -s], [s, c]]), (mode,), (mode,))


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
    return SymplecticOp(mat, (mode_a, mode_b), (mode_a, mode_b))


def symplectic_from_unitary(
    unitary: NDArray[np.complex128],
    input_modes: Sequence[ModeLabel],
    output_modes: Sequence[ModeLabel] | None = None,
) -> SymplecticOp:
    """Symplectic op of a passive linear-optics unitary on annihilation operators.

    For a' = U a with U = A + iB, quadratures map as X' = A X - B P and
    P' = B X + A P, giving 2x2 blocks [[A, -B], [B, A]] per mode pair.
    """
    u = np.asarray(unitary, dtype=complex)
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("unitary must be square")
    if np.max(np.abs(u @ u.conj().T - np.eye(n))) > 1e-12:
        raise ValueError("matrix is not unitary within tolerance")
    mat = np.zeros((2 * n, 2 * n))
    a, b = u.real, u.imag
    mat[0::2, 0::2] = a
    mat[1::2, 1::2] = a
    mat[0::2, 1::2] = -b
    mat[1::2, 0::2] = b
    outs = tuple(output_modes) if output_modes is not None else tuple(input_modes)
    return SymplecticOp(mat, tuple(input_modes), outs)
