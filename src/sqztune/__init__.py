"""
sqztune: simulator for frequency tuning of a squeezed vacuum state.

Gaussian-state propagation through a parametric source, an AOM-based
frequency tuner and lossy couplings; analytic frequency-domain homodyne
noise powers; and a reproducible Monte-Carlo photocurrent pipeline with
shot-noise / electronic-noise calibration.
"""

from .gaussian_core import (
    GaussianState,
    ModeLabel,
    SymplecticOp,
    add_vacuum_modes,
    apply_loss,
    apply_symplectic,
    apply_uniform_loss,
    is_physical,
    partial_trace,
    symplectic_eigenvalues,
)
from .homodyne import (
    DetectedPair,
    asymmetric_beat_noise,
    db,
    detect_pair,
    hd_noise_power,
    r_from_antisqueezing,
    undb,
    variance_from_r,
)
from .optics_components import (
    OpoParams,
    abi_efficiency,
    abi_ideal_unitary,
    aom_unitary,
    apply_abi,
    apply_aom,
    chain_efficiency,
    opo_sideband_state,
    opo_variances,
)
from .scenarios import (
    BUILTIN_SCENARIOS,
    ConfigError,
    ReferenceEntry,
    REFERENCE_TABLE,
    ScenarioConfig,
    ScenarioResult,
    emit_reference,
    get_scenario,
    list_scenarios,
    load_config,
    parse_reference,
    run_scenario,
    save_config,
    summary_csv,
    sweep,
)
from .timeseries import (
    AcquisitionParams,
    NoiseModel,
    SpectrumEstimate,
    band_power,
    band_power_stderr,
    calibrate,
    periodogram,
    simulate_spectrum,
    spectrum_from_csv,
    spectrum_to_csv,
    synthesize_round,
    write_spectra_csv,
)

__version__ = "0.1.0"
