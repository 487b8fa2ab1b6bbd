import warnings

import numpy as np
from hypothesis import strategies as st

# On a failing property, hypothesis' pytest plugin imports this module to
# suggest a patch; its libcst import raises a DeprecationWarning, which the
# suite's "error" warning filter would turn into an abort of the whole run.
# Importing it once here, with that warning ignored, lets the failure be
# reported like any other.
try:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401
except ImportError:
    pass

from oracles import phase_rotation, squeezer, two_mode_squeezer, vacuum_state
from sqztune.gaussian_core import (
    GaussianState,
    ModeLabel,
    apply_loss,
    apply_symplectic,
    symplectic_from_unitary,
)
from sqztune import scenarios
from sqztune.optics_components import apply_abi
from sqztune.timeseries import SpectrumEstimate

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
        zeta, visibility = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
        state = apply_abi(state, 80.0, zeta, visibility, rng.uniform(0, 2 * np.pi))
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


def per_cell_rows(spec: SpectrumEstimate) -> list[str]:
    """The data rows of a spectrum CSV, each value formatted on its own by ``repr``."""
    return [
        f"{float(freq)!r},{float(p)!r},{float(err)!r}"
        for freq, p, err in zip(spec.freqs_mhz, spec.psd, spec.stderr)
    ]


def mostly(valid, *wrong):
    """Mostly ``valid``: three of four branches; the fourth draws a listed wrong value."""
    return st.one_of(valid, valid, valid, st.sampled_from(wrong))


# Shifts: multiples of the builtins' 1.55 MHz source detuning (which make mode
# pairs overlap), the tuner's 80 MHz and a few others.
shift = mostly(st.sampled_from([-3.1, -1.55, 1.55, 3.1, 4.65, 80.0, -80.0, 10.0, 0.01]),
               True, None, "1", float("nan"), 1e308, -1e308)
unit = mostly(st.floats(0, 1), -0.1, 1.5, True, float("nan"))
element = st.one_of(
    st.fixed_dictionaries({"kind": st.just("loss"), "label": st.just("fuzz"), "efficiency": unit}),
    st.tuples(st.sampled_from([(0.8, 0.6), (0.6, 0.8), (1.0, 0.0), (0.8, 0.8)]), shift).map(
        lambda tr_s: {"kind": "aom", "t": tr_s[0][0], "r": tr_s[0][1], "shift_mhz": tr_s[1]}),
    st.fixed_dictionaries({"kind": st.just("abi"), "shift_mhz": shift, "zeta": unit,
                           "visibility": unit, "phi_rad": mostly(st.floats(-4, 4), float("inf"))}),
)
# (insert or replace, position among the mid-chain elements, element)
chain_change = st.tuples(st.booleans(), st.integers(0, 3), element)


def apply_chain_change(chain, change):
    insert, position, new = change
    mid = len(chain) - 2
    if insert or not mid:
        chain.insert(1 + position % (mid + 1), new)
    else:
        chain[1 + position % mid] = new
