import numpy as np
import pytest

from conftest import random_chain_state
from oracles import (
    mode_block,
    phase_rotation,
    quadrature_variance,
    squeezer,
    two_mode_squeezer,
    vacuum_state,
)
from sqztune.gaussian_core import (
    GaussianState,
    ModeLabel,
    SymplecticOp,
    add_vacuum_modes,
    apply_loss,
    apply_symplectic,
    is_physical,
    partial_trace,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_from_unitary,
)

CARRIER = ModeLabel(0)
LOWER = ModeLabel.from_mhz(-1.55)
UPPER = ModeLabel.from_mhz(1.55)


class TestModeLabel:
    def test_equality_is_exact(self):
        assert ModeLabel.from_mhz(1.55) == ModeLabel(1_550_000)
        assert ModeLabel.from_mhz(1.55) != ModeLabel.from_mhz(1.56)

    def test_from_mhz_snaps_float_noise(self):
        # 81.55 - 80 is not exactly 1.55 in binary floating point
        assert ModeLabel.from_mhz(81.55 - 80.0) == ModeLabel.from_mhz(1.55)

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            ModeLabel.from_mhz(1.5551234)

    @pytest.mark.parametrize("detuning", [1e308, -1e308, 1e303, float("inf"), float("nan")])
    def test_non_finite_step_count_rejected(self, detuning):
        with pytest.raises(ValueError, match="not a finite number of grid steps"):
            ModeLabel.from_mhz(detuning)

    def test_shift_arithmetic_exact(self):
        shifted = CARRIER.shifted_mhz(80.0)
        assert shifted.detuning_hz == 80_000_000
        assert UPPER.shifted_mhz(80.0).detuning_hz == 81_550_000

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            ModeLabel(1.5e6)


class TestVacuumState:
    def test_single_mode(self):
        state = vacuum_state([CARRIER])
        assert np.array_equal(state.cov, np.eye(2))

    def test_sideband_pair(self):
        state = vacuum_state([LOWER, UPPER])
        assert np.array_equal(state.cov, np.eye(4))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            vacuum_state([])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            vacuum_state([CARRIER, CARRIER])

    def test_asymmetric_cov_rejected(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            GaussianState((CARRIER,), cov)


class TestApplySymplectic:
    def test_identity_keeps_state(self):
        state = apply_symplectic(vacuum_state([LOWER, UPPER]), squeezer(0.7, UPPER))
        out = apply_symplectic(state, SymplecticOp(np.eye(2 * state.n_modes), state.modes))
        assert np.allclose(out.cov, state.cov, atol=1e-15)
        assert out.modes == state.modes

    def test_balanced_splitter_preserves_vacuum(self):
        u = np.array([[1, 1], [-1, 1]]) / np.sqrt(2)
        op = symplectic_from_unitary(u.astype(complex), (LOWER, UPPER))
        out = apply_symplectic(vacuum_state([LOWER, UPPER]), op)
        assert np.allclose(out.cov, np.eye(4), atol=1e-15)

    def test_squeezer_on_vacuum(self):
        r = 0.83
        out = apply_symplectic(vacuum_state([CARRIER]), squeezer(r, CARRIER))
        assert np.allclose(out.cov, np.diag([np.exp(-2 * r), np.exp(2 * r)]), atol=1e-12)

    def test_missing_input_mode_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            apply_symplectic(vacuum_state([CARRIER]), squeezer(0.5, UPPER))

    def test_non_symplectic_matrix_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            SymplecticOp(np.diag([2.0, 2.0]), (CARRIER,))

    def test_untouched_modes_unchanged(self):
        state = apply_symplectic(vacuum_state([LOWER, UPPER]), squeezer(0.9, LOWER))
        out = apply_symplectic(state, phase_rotation(0.4, UPPER))
        assert np.allclose(mode_block(out, LOWER), mode_block(state, LOWER), atol=1e-15)

    def test_composition_equals_composed_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            r1, r2, phi = rng.uniform(0, 1, 3)
            op1 = squeezer(r1, CARRIER)
            op2 = phase_rotation(phi, CARRIER)
            state = apply_symplectic(vacuum_state([CARRIER]), squeezer(r2, CARRIER))
            sequential = apply_symplectic(apply_symplectic(state, op1), op2)
            combined = apply_symplectic(state, SymplecticOp(op2.matrix @ op1.matrix, (CARRIER,)))
            assert np.allclose(sequential.cov, combined.cov, atol=1e-12)

    def test_lossless_op_preserves_purity(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            state = apply_symplectic(
                vacuum_state([LOWER, UPPER]), two_mode_squeezer(rng.uniform(0, 1), LOWER, UPPER)
            )
            det_before = np.linalg.det(state.cov)
            out = apply_symplectic(state, squeezer(rng.uniform(0, 1), LOWER))
            assert np.isclose(np.linalg.det(out.cov), det_before, rtol=1e-9)


class TestApplyLoss:
    def test_unit_efficiency_keeps_state(self):
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(1.0, CARRIER))
        out = apply_loss(state, CARRIER, 1.0)
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_zero_efficiency_gives_vacuum(self):
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(1.0, CARRIER))
        out = apply_loss(state, CARRIER, 0.0)
        assert np.allclose(out.cov, np.eye(2), atol=1e-15)

    def test_squeezed_variance_after_loss(self):
        # eta * exp(-2r) + (1 - eta) evaluated at r = 1.49, eta = 0.483
        r, eta = 1.49, 0.483
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(r, CARRIER))
        out = apply_loss(state, CARRIER, eta)
        assert np.isclose(out.cov[0, 0], 0.541532938756746, atol=1e-12)

    def test_out_of_range_rejected(self):
        state = vacuum_state([CARRIER])
        for eta in (-0.1, 1.1):
            with pytest.raises(ValueError, match="efficiency"):
                apply_loss(state, CARRIER, eta)

    def test_composition_law(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            state = random_chain_state(rng)
            mode = state.modes[int(rng.integers(0, state.n_modes))]
            e1, e2 = rng.uniform(0, 1, 2)
            double = apply_loss(apply_loss(state, mode, e1), mode, e2)
            single = apply_loss(state, mode, e1 * e2)
            assert np.max(np.abs(double.cov - single.cov)) < 1e-12

    def test_cross_correlations_scale_with_sqrt_eta(self):
        r, eta = 0.8, 0.6
        state = apply_symplectic(vacuum_state([LOWER, UPPER]), two_mode_squeezer(r, LOWER, UPPER))
        out = apply_loss(state, UPPER, eta)
        assert np.isclose(out.cov[0, 2], np.sqrt(eta) * state.cov[0, 2], atol=1e-12)


class TestQuadratureVariance:
    def test_vacuum_is_snl_for_any_angle(self):
        state = vacuum_state([CARRIER])
        for theta in np.linspace(0, 2 * np.pi, 17):
            assert quadrature_variance(state, CARRIER, theta) == pytest.approx(1.0, abs=1e-12)

    def test_squeezed_at_zero_angle(self):
        r = 1.2
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(r, CARRIER))
        assert quadrature_variance(state, CARRIER, 0.0) == pytest.approx(np.exp(-2 * r), rel=1e-12)

    def test_diagonal_average_at_45_degrees(self):
        state = GaussianState((CARRIER,), np.diag([0.3, 5.0]))
        assert quadrature_variance(state, CARRIER, np.pi / 4) == pytest.approx(2.65, rel=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            state = random_chain_state(rng)
            mode = state.modes[0]
            theta = rng.uniform(0, 2 * np.pi)
            v = quadrature_variance(state, mode, theta)
            assert quadrature_variance(state, mode, theta + np.pi) == pytest.approx(v, rel=1e-9)
            assert quadrature_variance(state, mode, theta + 2 * np.pi) == pytest.approx(v, rel=1e-9)


class TestPartialTrace:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(9)
        state = random_chain_state(rng)
        out = partial_trace(state, state.modes)
        assert out.modes == state.modes
        assert np.allclose(out.cov, state.cov, atol=1e-15)

    def test_two_mode_squeezed_reduces_to_thermal(self):
        r = 0.9
        state = apply_symplectic(vacuum_state([LOWER, UPPER]), two_mode_squeezer(r, LOWER, UPPER))
        reduced = partial_trace(state, [UPPER])
        assert np.allclose(reduced.cov, np.cosh(2 * r) * np.eye(2), atol=1e-12)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            partial_trace(vacuum_state([CARRIER]), [])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            partial_trace(vacuum_state([CARRIER]), [UPPER])

    def test_add_vacuum_modes_roundtrip(self):
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(0.5, CARRIER))
        extended = add_vacuum_modes(state, [UPPER])
        assert extended.modes == (CARRIER, UPPER)
        assert np.allclose(partial_trace(extended, [CARRIER]).cov, state.cov, atol=1e-15)
        assert np.allclose(mode_block(extended, UPPER), np.eye(2), atol=1e-15)


class TestPhysicality:
    def test_vacuum_symplectic_eigenvalues(self):
        assert np.allclose(symplectic_eigenvalues(vacuum_state([LOWER, UPPER])), [1.0, 1.0])

    def test_two_mode_squeezed_stays_pure(self):
        state = apply_symplectic(vacuum_state([LOWER, UPPER]), two_mode_squeezer(1.3, LOWER, UPPER))
        assert np.allclose(symplectic_eigenvalues(state), [1.0, 1.0], atol=1e-9)

    def test_thermal_eigenvalue(self):
        r = 0.7
        state = apply_symplectic(vacuum_state([LOWER, UPPER]), two_mode_squeezer(r, LOWER, UPPER))
        reduced = partial_trace(state, [LOWER])
        assert symplectic_eigenvalues(reduced)[0] == pytest.approx(np.cosh(2 * r), rel=1e-9)

    def test_random_chains_satisfy_uncertainty(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            assert is_physical(random_chain_state(rng))

    def test_symplectic_form_shape(self):
        j = symplectic_form(2)
        assert j.shape == (4, 4)
        assert np.array_equal(j, -j.T)
