import math

import numpy as np
import pytest

from conftest import random_chain_state
from oracles import mode_block, phase_rotation, squeezer, vacuum_state
from sqztune.gaussian_core import (
    ModeLabel,
    add_vacuum_modes,
    apply_loss,
    apply_symplectic,
    is_physical,
    symplectic_eigenvalues,
    symplectic_from_unitary,
)
from sqztune.homodyne import hd_noise_power
from sqztune.optics_components import (
    OpoParams,
    _couple_pairs,
    abi_efficiency,
    abi_ideal_unitary,
    aom_unitary,
    apply_abi,
    apply_aom,
    apply_uniform_loss,
    chain_efficiency,
    opo_sideband_state,
    opo_variances,
)

CARRIER = ModeLabel(0)
SHIFTED = ModeLabel.from_mhz(80.0)


class TestOpoParams:
    def test_above_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            OpoParams(pump_mw=980.0)
        with pytest.raises(ValueError, match="threshold"):
            OpoParams(pump_mw=1200.0)

    def test_negative_pump_rejected(self):
        with pytest.raises(ValueError):
            OpoParams(pump_mw=-1.0)

    def test_defaults(self):
        p = OpoParams(pump_mw=450.0)
        assert p.threshold_mw == 980.0
        assert p.bandwidth_mhz == 15.6


class TestOpoVariances:
    def test_no_pump_gives_snl(self):
        sq, anti = opo_variances(OpoParams(0.0), 1.55, 0.708)
        assert sq == anti == 1.0

    def test_zero_efficiency_gives_snl(self):
        sq, anti = opo_variances(OpoParams(450.0), 1.55, 0.0)
        assert sq == anti == 1.0

    def test_reference_point(self):
        # direct evaluation at P=450 mW, eta=0.708, nu=1.55 MHz
        sq, anti = opo_variances(OpoParams(450.0), 1.55, 0.708)
        assert sq == pytest.approx(0.3275771094319152, rel=1e-12)
        assert anti == pytest.approx(14.3815089006396, rel=1e-12)
        # the antisqueezing must sit within 0.15 dB of the measured 11.64 dB
        assert 10 * np.log10(anti) == pytest.approx(11.64, abs=0.15)
        assert 10 * np.log10(sq) == pytest.approx(-4.85, abs=0.01)

    def test_vectorized_over_frequency(self):
        nu = np.array([0.5, 1.55, 5.0])
        sq, anti = opo_variances(OpoParams(450.0), nu, 0.708)
        assert sq.shape == anti.shape == (3,)
        point = opo_variances(OpoParams(450.0), 1.55, 0.708)
        assert sq[1] == pytest.approx(point[0], rel=1e-14)

    def test_antisqueezing_monotone_in_pump(self):
        pumps = np.linspace(10, 970, 60)
        antis = [opo_variances(OpoParams(p), 1.55, 0.708)[1] for p in pumps]
        assert np.all(np.diff(antis) > 0)

    def test_squeezed_single_minimum_in_pump(self):
        # valley-shaped with exactly one minimum on the grid; without a phase
        # offset the stationary point sits above threshold, so the minimum may
        # land on the boundary
        pumps = np.linspace(5, 975, 300)
        sqs = np.array([opo_variances(OpoParams(p), 1.55, 0.708)[0] for p in pumps])
        rising = np.diff(sqs) > 0
        assert np.sum(np.diff(rising.astype(int)) != 0) <= 1
        assert not rising[0]

    def test_phase_offset_curve_has_interior_minimum(self):
        # with the 6 degree lock offset the readout mixes in the antisqueezed
        # branch and the squeezing-vs-pump curve turns back up before threshold
        offset = np.deg2rad(6.0)
        pumps = np.linspace(5, 975, 300)
        readout = []
        for p in pumps:
            sq, anti = opo_variances(OpoParams(p), 1.55, 0.708)
            readout.append(np.cos(offset) ** 2 * sq + np.sin(offset) ** 2 * anti)
        idx = int(np.argmin(readout))
        assert 0 < idx < len(pumps) - 1
        assert 200 < pumps[idx] < 350

    def test_purity_at_unit_efficiency(self):
        for pump in np.linspace(1.0, 979.0, 50):
            sq, anti = opo_variances(OpoParams(pump), 0.0, 1.0)
            assert sq * anti == pytest.approx(1.0, abs=1e-9)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            opo_variances(OpoParams(450.0), -1.0, 0.708)

    def test_vectorized_over_sources(self):
        # Each source's entry equals its own call bit for bit, also where the
        # scalar power (1 + x)^2 differs from numpy's squaring of an array.
        rng = np.random.default_rng(1501)
        sources = [OpoParams(p, escape_efficiency=0.934) for p in rng.uniform(0.0, 979.0, 2000)]
        sq, anti = opo_variances(sources, 1.55, 0.934)
        assert sq.shape == anti.shape == (2000,)
        points = np.array([opo_variances(p, 1.55, 0.934) for p in sources])
        assert np.array_equal(sq, points[:, 0])
        assert np.array_equal(anti, points[:, 1])
        x = np.sqrt([p.pump_mw / p.threshold_mw for p in sources])
        assert np.any((1.0 + x) ** 2 != np.array([(1.0 + v) ** 2 for v in x]))

    def test_sources_are_read_at_one_detuning(self):
        with pytest.raises(ValueError, match="one scalar detuning"):
            opo_variances([OpoParams(450.0)], np.array([1.0, 2.0]), 0.708)


class TestOpoSidebandState:
    def test_no_pump_gives_vacuum(self):
        state = opo_sideband_state(OpoParams(0.0, escape_efficiency=0.934), 1.55)
        assert np.allclose(state.cov, np.eye(4), atol=1e-15)
        assert state.modes == (ModeLabel.from_mhz(-1.55), ModeLabel.from_mhz(1.55))

    def test_readout_matches_variance_formula(self):
        p = OpoParams(450.0, escape_efficiency=0.934)
        state = opo_sideband_state(p, 1.55)
        sq, anti = opo_variances(p, 1.55, 0.934)
        assert hd_noise_power(state, CARRIER, 1.55, 0.0) == pytest.approx(sq, rel=1e-12)
        assert hd_noise_power(state, CARRIER, 1.55, np.pi / 2) == pytest.approx(anti, rel=1e-12)

    def test_state_is_physical(self):
        for pump in (50.0, 450.0, 900.0):
            state = opo_sideband_state(OpoParams(pump, escape_efficiency=0.9), 1.55)
            assert is_physical(state)
            assert symplectic_eigenvalues(state).min() >= 1.0 - 1e-9

    def test_downstream_loss_composes_multiplicatively(self):
        p_full = OpoParams(450.0, escape_efficiency=0.934)
        state = apply_uniform_loss(opo_sideband_state(p_full, 1.55), 0.758)
        sq, anti = opo_variances(p_full, 1.55, 0.934 * 0.758)
        assert hd_noise_power(state, CARRIER, 1.55, 0.0) == pytest.approx(sq, abs=1e-12)

    def test_zero_detuning_rejected(self):
        with pytest.raises(ValueError, match="nu"):
            opo_sideband_state(OpoParams(450.0), 0.0)


def aom_op(t, r):
    return symplectic_from_unitary(aom_unitary(t, r), (CARRIER, SHIFTED))


def ideal_abi(state, phi_rad=0.0, zeta=1.0):
    return apply_abi(state, 80.0, zeta, 1.0, phi_rad)


class TestAomTransform:
    def test_full_transmission_is_identity(self):
        op = aom_op(1.0, 0.0)
        assert np.allclose(op.matrix, np.eye(4), atol=1e-15)
        assert op.modes == (CARRIER, SHIFTED)

    def test_vacuum_in_vacuum_out(self):
        out = apply_aom(vacuum_state([CARRIER]), 1 / np.sqrt(2), 1 / np.sqrt(2), 80.0)
        assert np.allclose(out.cov, np.eye(4), atol=1e-14)

    def test_unnormalized_split_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            aom_unitary(0.9, 0.5)
        with pytest.raises(ValueError, match="normalized"):
            apply_aom(vacuum_state([CARRIER]), 0.9, 0.5, 80.0)

    def test_two_balanced_aoms_transfer_completely(self):
        # zero inter-arm phase: composition acts like the closed-form tuner
        s2 = 1 / np.sqrt(2)
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(0.8, CARRIER))
        out = apply_aom(state, s2, s2, 80.0)
        out = apply_symplectic(out, aom_op(s2, s2))
        assert np.allclose(mode_block(out, SHIFTED), mode_block(state, CARRIER), atol=1e-12)
        assert np.allclose(mode_block(out, CARRIER), np.eye(2), atol=1e-12)

    def test_multimode_state_equals_pairwise_ops(self):
        # one block-diagonal symplectic equals each pair's op applied in turn
        t, r = 0.8, 0.6
        state = opo_sideband_state(OpoParams(450.0), 1.55)
        state = apply_loss(state, ModeLabel.from_mhz(1.55), 0.7)
        got = apply_aom(state, t, r, 80.0)
        expected = add_vacuum_modes(state, [m.shifted_mhz(80.0) for m in state.modes])
        for lo in state.modes:
            op = symplectic_from_unitary(aom_unitary(t, r), (lo, lo.shifted_mhz(80.0)))
            expected = apply_symplectic(expected, op)
        assert got.modes == expected.modes
        assert np.max(np.abs(got.cov - expected.cov)) <= 1e-15

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            apply_aom(vacuum_state([CARRIER, SHIFTED]), 0.8, 0.6, 80.0)


class TestAbi:
    def test_efficiency_formula(self):
        assert abi_efficiency(1.0, 1.0) == 1.0
        assert abi_efficiency(0.8, 0.0) == pytest.approx(0.4)
        assert abi_efficiency(0.91, 1.0) == pytest.approx(0.91)
        with pytest.raises(ValueError):
            abi_efficiency(1.2, 1.0)
        with pytest.raises(ValueError):
            abi_efficiency(0.9, -0.1)

    def test_ideal_transfer_at_zero_phase(self):
        r = 1.1
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(r, CARRIER))
        out = ideal_abi(state)
        assert np.allclose(
            mode_block(out, SHIFTED), np.diag([np.exp(-2 * r), np.exp(2 * r)]), atol=1e-12
        )
        assert np.allclose(mode_block(out, CARRIER), np.eye(2), atol=1e-12)

    def test_ideal_transfer_is_exact(self):
        # the closed-form unitary at phi = 0 holds only 0 and +-1
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(1.1, CARRIER))
        state = apply_symplectic(state, phase_rotation(0.3, CARRIER))
        out = ideal_abi(state)
        assert out.modes == (CARRIER, SHIFTED)
        assert np.array_equal(mode_block(out, SHIFTED), mode_block(state, CARRIER))
        assert np.array_equal(mode_block(out, CARRIER), np.eye(2))
        assert np.array_equal(out.cov[:2, 2:], np.zeros((2, 2)))

    def test_pi_phase_swaps_ports(self):
        r = 0.9
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(r, CARRIER))
        out = ideal_abi(state, phi_rad=np.pi)
        # input at the carrier stays at the carrier; the shifted port gets vacuum
        assert np.allclose(mode_block(out, CARRIER), mode_block(state, CARRIER), atol=1e-12)
        assert np.allclose(mode_block(out, SHIFTED), np.eye(2), atol=1e-12)

    def test_lossy_transfer_mixes_vacuum(self):
        r = 0.8
        state = apply_symplectic(vacuum_state([CARRIER]), squeezer(r, CARRIER))
        out = ideal_abi(state, zeta=0.91)
        expected = 0.91 * np.exp(-2 * r) + 0.09
        assert mode_block(out, SHIFTED)[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_splitting_ratio_follows_half_angle(self):
        for phi in np.linspace(0.1, 2 * np.pi - 0.1, 9):
            u = abi_ideal_unitary(phi)
            transfer = abs(u[1, 0]) ** 2  # carrier input -> shifted output
            assert transfer == pytest.approx(np.cos(phi / 2) ** 2, abs=1e-12)
            assert abs(u[0, 0]) ** 2 == pytest.approx(np.sin(phi / 2) ** 2, abs=1e-12)

    def test_ideal_visibility_is_unity(self):
        phis = np.linspace(0, 2 * np.pi, 721)
        transmitted = np.array([abs(abi_ideal_unitary(p)[1, 0]) ** 2 for p in phis])
        vis = (transmitted.max() - transmitted.min()) / (transmitted.max() + transmitted.min())
        assert vis == pytest.approx(1.0, abs=1e-9)

    def test_matrix_matches_aom_composition(self):
        rng = np.random.default_rng(42)
        s2 = 1 / np.sqrt(2)
        for _ in range(20):
            phi = rng.uniform(0, 2 * np.pi)
            aom = aom_op(s2, s2)
            arm_phase = phase_rotation(phi, SHIFTED)
            full_phase = np.eye(4)
            full_phase[2:, 2:] = arm_phase.matrix
            composed = aom.matrix @ full_phase @ aom.matrix
            closed_form = symplectic_from_unitary(abi_ideal_unitary(phi), (CARRIER, SHIFTED))
            assert np.max(np.abs(composed - closed_form.matrix)) < 1e-12

    def test_overlapping_pairs_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ideal_abi(vacuum_state([CARRIER, SHIFTED]))

    def test_sideband_pairs_ride_along(self):
        state = opo_sideband_state(OpoParams(450.0, escape_efficiency=0.934), 1.55)
        out = ideal_abi(state)
        assert ModeLabel.from_mhz(78.45) in out.modes
        assert ModeLabel.from_mhz(81.55) in out.modes
        sq, _ = opo_variances(OpoParams(450.0), 1.55, 0.934)
        assert hd_noise_power(out, SHIFTED, 1.55, 0.0) == pytest.approx(sq, rel=1e-12)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ideal_abi(vacuum_state([CARRIER]), zeta=1.3)


def kron_coupler(state, u, shift_mhz):
    """The pair coupler built as one block-diagonal symplectic of all pairs,
    np.kron(I, u), checked whole and applied with apply_symplectic."""
    uppers = tuple(m.shifted_mhz(shift_mhz) for m in state.modes)
    pair_modes = [m for pair in zip(state.modes, uppers) for m in pair]
    op = symplectic_from_unitary(np.kron(np.eye(len(uppers)), u), pair_modes)
    return apply_symplectic(add_vacuum_modes(state, uppers), op)


class TestPairCoupler:
    """The pair coupler is the block-diagonal construction, bit for bit,
    with an overlap check (_partners) ahead of it."""

    @staticmethod
    def pair_states(rng, count):
        """Random states of 1-3 modes (each the lower member of one pair) and
        a shift that pairs none of their modes with another."""
        while count:
            state = random_chain_state(rng)
            shift = float(rng.choice([10.0, -20.0, 45.5, 80.0]))
            uppers = [m.shifted_mhz(shift) for m in state.modes]
            if state.n_modes <= 3 and not any(m in state.modes for m in uppers):
                count -= 1
                yield state, shift

    def test_aom_and_tuner_equal_the_kron_construction(self):
        rng = np.random.default_rng(1502)
        sizes = set()
        for state, shift in self.pair_states(rng, 400):
            sizes.add(state.n_modes)
            if rng.uniform() < 0.5:
                angle = rng.uniform(0.0, np.pi / 2)
                t, r = math.cos(angle), math.sin(angle)
                got = apply_aom(state, t, r, shift)
                expected = kron_coupler(state, aom_unitary(t, r), shift)
            else:
                zeta, visibility = rng.uniform(0.5, 1.0), rng.uniform(0.0, 1.0)
                phi = rng.uniform(-7.0, 7.0)
                got = apply_abi(state, shift, zeta, visibility, phi)
                coupled = kron_coupler(state, abi_ideal_unitary(phi), shift)
                # The loss on every mode listed, which takes its indexed path.
                eta = abi_efficiency(zeta, visibility)
                expected = apply_uniform_loss(coupled, eta, coupled.modes)
            assert got.modes == expected.modes
            assert got.cov.tobytes() == expected.cov.tobytes()
        assert sizes == {1, 2, 3}

    @pytest.mark.parametrize("scale, unitary", [(1.0 + 4e-13, True), (1.0 + 1e-12, False),
                                                (1.001, False)])
    def test_unitarity_checked_at_the_same_tolerance(self, scale, unitary):
        rng = np.random.default_rng(1503)
        for state, shift in self.pair_states(rng, 20):
            u = scale * abi_ideal_unitary(rng.uniform(-4, 4))
            if unitary:
                got = _couple_pairs(state, u, shift)
                assert got.cov.tobytes() == kron_coupler(state, u, shift).cov.tobytes()
                continue
            for couple in (_couple_pairs, kron_coupler):
                with pytest.raises(ValueError, match="^matrix is not unitary within tolerance$"):
                    couple(state, u, shift)


class TestUniformLoss:
    def sequential(self, state, eta, modes):
        for mode in modes:
            state = apply_loss(state, mode, eta)
        return state

    def test_one_step_equals_sequential_single_mode_losses(self):
        rng = np.random.default_rng(53)
        for _ in range(60):
            state = random_chain_state(rng)
            eta = float(rng.choice([0.0, 1.0, rng.uniform(0, 1)]))
            subset = [m for m in state.modes if rng.uniform() < 0.5]
            order = [state.modes[i] for i in rng.permutation(state.n_modes)]
            for modes, expected_modes in ((None, state.modes), (subset, subset), (order, order)):
                got = apply_uniform_loss(state, eta, modes)
                expected = self.sequential(state, eta, expected_modes)
                assert got.modes == expected.modes
                assert np.array_equal(got.cov, expected.cov)

    def test_bad_arguments_rejected(self):
        state = vacuum_state([CARRIER, SHIFTED])
        with pytest.raises(ValueError, match="efficiency"):
            apply_uniform_loss(state, 1.5)
        with pytest.raises(ValueError, match="duplicate"):
            apply_uniform_loss(state, 0.5, (CARRIER, CARRIER))
        with pytest.raises(ValueError, match="not present"):
            apply_uniform_loss(state, 0.5, (ModeLabel.from_mhz(1.0),))


class TestChainEfficiency:
    def test_direct_detection_budget(self):
        chain = [("escape", 0.934), ("coupling", 0.854), ("detector", 0.888)]
        assert chain_efficiency(chain) == pytest.approx(0.708, abs=1e-3)

    def test_beat_detection_budget(self):
        chain = [("path", 0.713), ("tuner", 0.91), ("coupling", 0.841), ("fast detector", 0.806)]
        assert chain_efficiency(chain) == pytest.approx(0.439, abs=1e-3)

    def test_product_semantics(self):
        assert chain_efficiency([("a", 0.5), ("b", 0.5)]) == pytest.approx(0.25)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            chain_efficiency([])

    def test_out_of_range_factor_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            chain_efficiency([("bad", 1.2)])
