import numpy as np

from sqztune.gaussian_core import (
    GaussianState,
    ModeLabel,
    apply_loss,
    apply_symplectic,
    phase_rotation,
    squeezer,
    symplectic_from_unitary,
    two_mode_squeezer,
    vacuum_state,
)
from sqztune import scenarios
from sqztune.optics_components import AbiParams, apply_abi

MODE_POOL = tuple(ModeLabel.from_mhz(m) for m in (-2.0, -1.0, 0.0, 1.0, 2.0))


def random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random 2x2 unitary built from Euler angles."""
    a, b, c = rng.uniform(0, 2 * np.pi, size=3)
    th = rng.uniform(0, np.pi / 2)
    return np.array(
        [
            [np.exp(1j * a) * np.cos(th), np.exp(1j * b) * np.sin(th)],
            [-np.exp(-1j * b) * np.sin(th), np.exp(-1j * a) * np.cos(th)],
        ]
    ) * np.exp(1j * c)


def random_chain_state(rng: np.random.Generator) -> GaussianState:
    """Vacuum pushed through a random short chain of ops and loss channels."""
    n_modes = int(rng.integers(1, 4))
    modes = list(rng.choice(len(MODE_POOL), size=n_modes, replace=False))
    state = vacuum_state([MODE_POOL[i] for i in sorted(modes)])
    for _ in range(int(rng.integers(1, 6))):
        kind = rng.integers(0, 5)
        mode = state.modes[int(rng.integers(0, state.n_modes))]
        if kind == 0:
            state = apply_symplectic(state, squeezer(rng.uniform(0, 1.5), mode))
        elif kind == 1:
            state = apply_symplectic(state, phase_rotation(rng.uniform(0, 2 * np.pi), mode))
        elif kind == 2 and state.n_modes >= 2:
            other = state.modes[int(rng.integers(0, state.n_modes))]
            if other != mode:
                state = apply_symplectic(
                    state, two_mode_squeezer(rng.uniform(0, 1.2), mode, other)
                )
        elif kind == 3 and state.n_modes >= 2:
            other = state.modes[int(rng.integers(0, state.n_modes))]
            if other != mode:
                op = symplectic_from_unitary(random_unitary_2x2(rng), (mode, other))
                state = apply_symplectic(state, op)
        else:
            state = apply_loss(state, mode, rng.uniform(0, 1))
    if rng.uniform() < 0.2:
        params = AbiParams(
            shift_mhz=80.0, zeta=rng.uniform(0.5, 1.0), visibility=rng.uniform(0.5, 1.0),
            phi_rad=rng.uniform(0, 2 * np.pi),
        )
        state = apply_abi(state, params)
    return state


def mc_target_psd(cfg: scenarios.ScenarioConfig, theta: float, pump: float | None = None):
    """The optical Monte-Carlo target PSD run_scenario builds for ``cfg`` at
    LO phase ``theta`` and ``pump`` (default: the first pump), as a function
    of grid frequency."""
    pump = cfg.pump_sweep_mw[0] if pump is None else pump
    hd = cfg.hd
    pairs = scenarios._response_pairs(cfg)
    gains = [[pair.gains(theta + hd.delta_theta_rad) for pair in pairs]]
    opo = scenarios._opo_params(cfg, pump)
    return lambda freqs: scenarios._mc_targets(cfg, opo, gains, hd.efficiency, freqs)[0]
