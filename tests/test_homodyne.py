import numpy as np
import pytest

from conftest import random_chain_state
from sqztune.gaussian_core import (
    ModeLabel,
    apply_symplectic,
    phase_rotation,
    squeezer,
    two_mode_squeezer,
    vacuum_state,
)
from sqztune.homodyne import (
    ANTISQUEEZED,
    SQUEEZED,
    asymmetric_beat_noise,
    db,
    detect_pair,
    hd_noise_power,
    r_from_antisqueezing,
    undb,
    variance_from_r,
)
from sqztune.optics_components import (
    OpoParams,
    apply_uniform_loss,
    opo_sideband_state,
    opo_variances,
    sideband_pair_state,
)

CARRIER = ModeLabel(0)
LOWER = ModeLabel.from_mhz(-1.55)
UPPER = ModeLabel.from_mhz(1.55)
OFFSET_6DEG = np.deg2rad(6.0)


def brute_force_noise(cov4: np.ndarray, theta: float) -> float:
    """Photocurrent variance from the raw quadratic form, as an oracle.

    The detected observable splits into the commuting pair
    A = cos(t) X+ + sin(t) P+ and B = cos(t) P- - sin(t) X- over the basis
    (X_lo, P_lo, X_up, P_up); the noise power is (Var A + Var B) / 2.
    """
    c, s = np.cos(theta), np.sin(theta)
    v_a = np.array([c, s, c, s]) / np.sqrt(2)
    v_b = np.array([s, -c, -s, c]) / np.sqrt(2)
    return float(0.5 * (v_a @ cov4 @ v_a + v_b @ cov4 @ v_b))


class TestDbConversion:
    def test_unity_is_zero_db(self):
        assert db(1.0) == 0.0

    def test_half_power(self):
        assert db(0.5) == pytest.approx(-3.0102999566398120, abs=1e-12)

    def test_reference_antisqueezing(self):
        assert db(14.38) == pytest.approx(11.577588860468637, abs=1e-12)

    def test_round_trip(self):
        for value in (0.01, 0.5, 1.0, 14.38, 1e3):
            assert undb(db(value)) == pytest.approx(value, rel=1e-12)

    def test_non_positive_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                db(bad)


class TestHdNoisePower:
    def test_vacuum_gives_exact_snl(self):
        state = vacuum_state([LOWER, UPPER])
        for theta in (0.0, 0.3, np.pi / 2, 2.1):
            value = hd_noise_power(state, CARRIER, 1.55, theta)
            assert value == 1.0
            assert db(value) == 0.0

    def test_reference_squeezing_with_lock_offset(self):
        # P=450 mW, total efficiency 0.708, theta=0, offset 6 deg, nu=1.55 MHz
        state = opo_sideband_state(OpoParams(450.0), 1.55)
        value = hd_noise_power(state, CARRIER, 1.55, OFFSET_6DEG, efficiency=0.708)
        assert value == pytest.approx(0.48113317381258136, rel=1e-12)
        assert db(value) == pytest.approx(-3.1773469774916565, abs=1e-9)
        # measured value lands at -3.02 +- 0.02; the model must sit within 0.35
        assert db(value) == pytest.approx(-3.02, abs=0.35)

    def test_reference_antisqueezing_with_lock_offset(self):
        state = opo_sideband_state(OpoParams(450.0), 1.55)
        value = hd_noise_power(state, CARRIER, 1.55, np.pi / 2 + OFFSET_6DEG, efficiency=0.708)
        assert db(value) == pytest.approx(11.531424168886064, abs=1e-9)
        assert db(value) == pytest.approx(11.64, abs=0.2)

    def test_matches_variance_formula_across_grid(self):
        # consistency oracle over a (pump, frequency) grid at 1e-9
        for pump in (90.0, 270.0, 450.0, 810.0):
            for nu in (0.5, 1.55, 5.0, 12.0, 25.0):
                p = OpoParams(pump, escape_efficiency=0.934)
                state = apply_uniform_loss(opo_sideband_state(p, nu), 0.758)
                total = 0.934 * 0.758
                sq, anti = opo_variances(p, nu, total)
                got_sq = hd_noise_power(state, CARRIER, nu, 0.0)
                got_anti = hd_noise_power(state, CARRIER, nu, np.pi / 2)
                assert abs(got_sq - sq) < 1e-9
                assert abs(got_anti - anti) < 1e-9

    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            state = random_chain_state(rng)
            lo = CARRIER
            nu = 1.0
            theta = rng.uniform(0, 2 * np.pi)
            value = hd_noise_power(state, lo, nu, theta)
            from sqztune.gaussian_core import add_vacuum_modes, partial_trace

            lower, upper = lo.shifted_mhz(-nu), lo.shifted_mhz(nu)
            missing = [m for m in (lower, upper) if m not in state.modes]
            pair = partial_trace(add_vacuum_modes(state, missing), (lower, upper))
            assert value == pytest.approx(brute_force_noise(pair.cov, theta), rel=1e-10)

    def test_cross_correlations_enter_at_intermediate_phase(self):
        # rotating one arm of a squeezed pair creates X-P correlations across
        # the sidebands; the phase-weighted formula must still match the raw
        # quadratic form
        state = apply_symplectic(vacuum_state([LOWER, UPPER]), two_mode_squeezer(0.9, LOWER, UPPER))
        state = apply_symplectic(state, phase_rotation(0.6, UPPER))
        value = hd_noise_power(state, CARRIER, 1.55, 0.7)
        assert detect_pair(state, CARRIER, 1.55).cross_term != 0.0
        from sqztune.gaussian_core import partial_trace

        pair = partial_trace(state, (LOWER, UPPER))
        assert value == pytest.approx(brute_force_noise(pair.cov, 0.7), rel=1e-12)

    def test_theta_average_equals_branch_mean(self):
        rng = np.random.default_rng(23)
        thetas = np.linspace(0, 2 * np.pi, 4001)
        for _ in range(5):
            state = random_chain_state(rng)
            values = [hd_noise_power(state, CARRIER, 1.0, t) for t in thetas]
            avg = np.trapezoid(values, thetas) / (2 * np.pi)
            pair = detect_pair(state, CARRIER, 1.0)
            assert avg == pytest.approx((pair.plus_variance + pair.minus_variance) / 2, rel=1e-6)

    def test_loss_floor(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            state = random_chain_state(rng)
            eta = rng.uniform(0, 1)
            theta = rng.uniform(0, 2 * np.pi)
            value = hd_noise_power(state, CARRIER, 1.0, theta, efficiency=eta)
            assert value >= 1.0 - eta - 1e-12

    def test_missing_modes_fill_as_vacuum(self):
        state = apply_symplectic(vacuum_state([UPPER]), squeezer(1.0, UPPER))
        far = hd_noise_power(state, CARRIER, 5.0, 0.0)
        assert far == 1.0

    def test_lock_offset_degrades_squeezing(self):
        state = opo_sideband_state(OpoParams(450.0), 1.55)
        perfect = hd_noise_power(state, CARRIER, 1.55, 0.0, efficiency=0.708)
        offset = hd_noise_power(state, CARRIER, 1.55, OFFSET_6DEG, efficiency=0.708)
        assert offset > perfect


class TestDetectedPair:
    """One reduction per band read at every LO phase is hd_noise_power per phase."""

    THETAS = (0.0, np.pi / 2, 0.7, -1.3, 2.0 * np.pi / 3)

    def assert_same_readout(self, state, lo, nu, eta, delta):
        pair = detect_pair(state, lo, nu, eta)
        got = [1.0 + pair.gains(theta + delta)[0] for theta in self.THETAS]
        expected = [hd_noise_power(state, lo, nu, theta + delta, eta) for theta in self.THETAS]
        assert got == expected  # exactly

    @pytest.mark.parametrize("nu", [1.0, 2.0, 5.0], ids=["pair", "edge", "far"])
    def test_phase_list_equals_per_phase_readout(self, nu):
        # MODE_POOL holds -2..2 MHz: lo +- 2 and lo +- 5 leave members to
        # vacuum fill.
        rng = np.random.default_rng(41)
        for _ in range(30):
            state = random_chain_state(rng)
            lo = ModeLabel.from_mhz(float(rng.choice([-1.0, 0.0, 1.0])))
            self.assert_same_readout(state, lo, nu, rng.uniform(0, 1), rng.uniform(-0.3, 0.3))

    def test_missing_sideband_modes_fill_as_vacuum(self):
        state = apply_symplectic(vacuum_state([UPPER]), squeezer(1.0, UPPER))
        self.assert_same_readout(state, CARRIER, 1.55, 0.8, 0.1)

    def test_negative_frequency_rejected(self):
        for nu in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive"):
                detect_pair(vacuum_state([CARRIER]), CARRIER, nu)

    def test_gains_of_the_bare_source_pair(self):
        # The response of an empty chain is the source pair itself (vs = 2,
        # va = 1): the excess vs - 1 reads at theta = 0, va - 1 at pi/2.
        pair = detect_pair(sideband_pair_state(2.0, 1.0, 1.55), CARRIER, 1.55)
        assert pair.gains(0.0) == (1.0, 0.0)
        a, b = pair.gains(np.pi / 2)
        assert (a, b) == pytest.approx((0.0, 1.0), abs=1e-15)
        a, b = pair.gains(0.3)
        assert a + b == pytest.approx(1.0, rel=1e-15)
        assert a == pytest.approx(np.cos(0.3) ** 2, rel=1e-15)


class TestEffectiveSqueezing:
    def test_zero_r_is_snl(self):
        assert variance_from_r(0.0, 0.7, SQUEEZED) == 1.0
        assert variance_from_r(0.0, 0.7, ANTISQUEEZED) == 1.0

    def test_reference_antisqueezing(self):
        value = variance_from_r(1.49, 0.483, ANTISQUEEZED)
        assert value == pytest.approx(10.026215439420238, rel=1e-12)
        assert db(value) == pytest.approx(10.02, abs=0.05)

    def test_zero_efficiency_is_snl(self):
        assert variance_from_r(2.0, 0.0, SQUEEZED) == 1.0
        assert variance_from_r(2.0, 0.0, ANTISQUEEZED) == 1.0

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            variance_from_r(-0.1, 0.5, SQUEEZED)

    def test_unknown_branch_rejected(self):
        with pytest.raises(ValueError, match="branch"):
            variance_from_r(1.0, 0.5, "sideways")

    def test_reference_inversion(self):
        assert r_from_antisqueezing(10.02, 0.483) == pytest.approx(1.49, abs=0.01)
        assert r_from_antisqueezing(10.02, 0.483) == pytest.approx(1.491047488159786, rel=1e-12)

    def test_zero_db_inverts_to_zero(self):
        for eta in (0.2, 0.483, 1.0):
            assert r_from_antisqueezing(0.0, eta) == pytest.approx(0.0, abs=1e-12)

    def test_infeasible_level_rejected(self):
        # linear value at or below the vacuum admixture floor 1 - eta
        with pytest.raises(ValueError, match="floor"):
            r_from_antisqueezing(-3.2, 0.3)

    def test_below_snl_rejected(self):
        with pytest.raises(ValueError, match="shot noise"):
            r_from_antisqueezing(-0.2, 0.9)

    def test_round_trip_over_r_range(self):
        for r in np.linspace(0.0, 3.0, 61):
            for eta in (0.1, 0.483, 0.95):
                anti = variance_from_r(r, eta, ANTISQUEEZED)
                assert r_from_antisqueezing(db(anti), eta) == pytest.approx(r, abs=1e-9)


class TestAsymmetricBeatNoise:
    def test_vacuum_input_gives_snl(self):
        for eta in (0.0, 0.439, 1.0):
            assert asymmetric_beat_noise(0.0, eta) == pytest.approx(1.0, abs=1e-15)

    def test_reference_point(self):
        full = asymmetric_beat_noise(1.49, 0.439)
        assert full == pytest.approx(2.9468123902793457, rel=1e-12)
        assert db(full) == pytest.approx(4.34, abs=0.5)
        bare = asymmetric_beat_noise(1.49, 0.439, include_vacuum_half=False)
        assert bare == pytest.approx(2.4468123902793457, rel=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            asymmetric_beat_noise(-1.0, 0.5)

    def test_matches_state_readout(self):
        # one member of a lossy squeezed pair plus vacuum, read out off-center
        rng = np.random.default_rng(77)
        shift = ModeLabel.from_mhz(80.0)
        pair = (ModeLabel.from_mhz(78.45), ModeLabel.from_mhz(81.55))
        for _ in range(50):
            r = rng.uniform(0, 2.5)
            eta = rng.uniform(0.05, 1.0)
            state = apply_symplectic(vacuum_state(pair), two_mode_squeezer(r, *pair))
            state = apply_uniform_loss(state, eta)
            # recover r the way the measurement procedure does: from the
            # antisqueezing seen by the matched (shifted) LO
            anti = hd_noise_power(state, shift, 1.55, np.pi / 2)
            r_eff = r_from_antisqueezing(db(anti), eta)
            beat = hd_noise_power(state, CARRIER, 81.55, rng.uniform(0, np.pi))
            assert beat == pytest.approx(asymmetric_beat_noise(r_eff, eta), abs=1e-9)

    def test_phase_insensitive(self):
        pair = (ModeLabel.from_mhz(78.45), ModeLabel.from_mhz(81.55))
        state = apply_symplectic(vacuum_state(pair), two_mode_squeezer(1.49, *pair))
        state = apply_uniform_loss(state, 0.439)
        values = [hd_noise_power(state, CARRIER, 81.55, t) for t in (0.0, np.pi / 2, 1.234)]
        assert max(values) - min(values) < 1e-12
