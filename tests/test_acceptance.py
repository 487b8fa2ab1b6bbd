"""
Acceptance gate: one test per criterion, each printing a pass/fail line.

Monte-Carlo criteria run the builtin scenarios once at their default
acquisition settings (500 rounds, frozen seed) through a module-scoped
fixture; run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines for passing tests too.
"""

import math
from decimal import Decimal

import numpy as np
import pytest

from conftest import random_chain_state
from oracles import phase_rotation
from sqztune.gaussian_core import (
    ModeLabel,
    apply_loss,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_from_unitary,
)
from sqztune.homodyne import (
    ANTISQUEEZED,
    asymmetric_beat_noise,
    db,
    r_from_antisqueezing,
    variance_from_r,
)
from sqztune.optics_components import (
    OpoParams,
    abi_ideal_unitary,
    aom_unitary,
    chain_efficiency,
    opo_variances,
)
from sqztune.scenarios import (
    BUILTIN_SCENARIOS,
    HdSpec,
    ScenarioConfig,
    SourceSpec,
    get_scenario,
    run_scenario,
)
from sqztune.timeseries import AcquisitionParams

CARRIER = ModeLabel(0)
OFFSET_6DEG = math.radians(6.0)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def full_runs():
    """All builtin scenarios at default acquisition (500 rounds, frozen seed)."""
    return {name: run_scenario(get_scenario(name)) for name in sorted(BUILTIN_SCENARIOS)}


def _readout_rows(pumps: tuple[float, ...], eta: float) -> dict[str, float]:
    """Analytic rows of a chain of only the source and the carrier-LO readout
    (phases 0 and pi/2, 1.55 MHz band, 6 degree lock offset, efficiency eta)."""
    hd = HdSpec(0.0, (0.0, math.pi / 2), (1.55,), OFFSET_6DEG, eta)
    cfg = ScenarioConfig("readout", "", (SourceSpec(), hd), pumps, AcquisitionParams())
    return {row.quantity: row.analytic_db for row in run_scenario(cfg, mode="analytic").rows}


def test_criterion_1_direct_readout_levels():
    rows = _readout_rows((450.0,), 0.708)
    squeezing = rows["squeezing_db@450mW"]
    antisqueezing = rows["antisqueezing_db@450mW"]
    ok = abs(antisqueezing - 11.64) <= 0.2 and abs(squeezing - (-3.02)) <= 0.35
    report(
        "criterion 1",
        ok,
        f"450 mW, eta 0.708: squeezing {squeezing:+.3f} dB (ref -3.02+-0.35), "
        f"antisqueezing {antisqueezing:+.3f} dB (ref 11.64+-0.2)",
    )
    assert abs(antisqueezing - 11.64) <= 0.2
    assert abs(squeezing - (-3.02)) <= 0.35


def test_criterion_2_pump_sweep_optimum(full_runs):
    rows = {row.quantity: row for row in full_runs["fig4b"].rows}
    value = rows["squeezing_db@270mW"].analytic_db
    ok = -3.8 <= value <= -3.2
    report("criterion 2", ok, f"squeezing at 270 mW = {value:+.3f} dB, window [-3.8, -3.2]")
    assert -3.8 <= value <= -3.2


def test_criterion_3_tuned_state_levels():
    rows = _readout_rows((450.0, 270.0), 0.483)
    sq_450 = rows["squeezing_db@450mW"]
    anti_450 = rows["antisqueezing_db@450mW"]
    sq_270 = rows["squeezing_db@270mW"]
    ok = (
        abs(sq_450 - (-1.66)) <= 0.35
        and abs(anti_450 - 10.02) <= 0.2
        and abs(sq_270 - (-1.98)) <= 0.35
    )
    report(
        "criterion 3",
        ok,
        f"eta 0.483: squeezing(450) {sq_450:+.3f} (ref -1.66+-0.35), "
        f"antisqueezing(450) {anti_450:+.3f} (ref 10.02+-0.2), "
        f"squeezing(270) {sq_270:+.3f} (ref -1.98+-0.35)",
    )
    assert abs(sq_450 - (-1.66)) <= 0.35
    assert abs(anti_450 - 10.02) <= 0.2
    assert abs(sq_270 - (-1.98)) <= 0.35


def test_criterion_4_effective_squeezing_inversion():
    r = r_from_antisqueezing(10.02, 0.483)
    ok = abs(r - 1.49) <= 0.01
    report("criterion 4", ok, f"r(10.02 dB, eta 0.483) = {r:.4f}, ref 1.49+-0.01")
    assert abs(r - 1.49) <= 0.01
    # and the inversion is consistent with the forward map
    assert db(variance_from_r(r, 0.483, ANTISQUEEZED)) == pytest.approx(10.02, abs=1e-9)


def test_criterion_5_beat_note_prediction(full_runs):
    predicted = asymmetric_beat_noise(1.49, 0.439)
    predicted_db = db(predicted)
    ok_theory = abs(predicted_db - 4.34) <= 0.5
    # the excess-only bookkeeping of the same point, kept for comparison
    assert asymmetric_beat_noise(1.49, 0.439, include_vacuum_half=False) == pytest.approx(
        2.4468123902793457, rel=1e-12
    )

    rows = {row.quantity: row for row in full_runs["fig5a"].rows}
    hi_90 = rows["beat_db@450mW@81.55MHz@theta90"].mc_db
    lo_90 = rows["beat_db@450mW@78.45MHz@theta90"].mc_db
    hi_0 = rows["beat_db@450mW@81.55MHz@theta0"].mc_db
    lo_0 = rows["beat_db@450mW@78.45MHz@theta0"].mc_db
    band_gap = abs(hi_90 - lo_90)
    phase_gap = max(abs(hi_90 - hi_0), abs(lo_90 - lo_0))
    ok = ok_theory and band_gap <= 0.1 and phase_gap <= 0.05
    report(
        "criterion 5",
        ok,
        f"beat prediction {predicted_db:+.3f} dB (ref 4.34+-0.5); Monte-Carlo bands "
        f"{hi_90:+.3f}/{lo_90:+.3f} dB (gap {band_gap:.3f} <= 0.1), "
        f"phase gap {phase_gap:.3f} <= 0.05",
    )
    assert ok_theory
    assert band_gap <= 0.1
    assert phase_gap <= 0.05


# Criterion 6: each detection budget is quoted as a total beside its
# listed factors.  A quoted figure is known only to half a unit in its last
# written digit, so the figures are kept as the strings they are quoted as:
# "0.713" is 0.713+-0.0005, while the tuner's "0.91" (the abstract's 91%)
# is 0.91+-0.005.  A budget is consistent when the products its factors
# allow, [prod(f - half), prod(min(f + half, 1))], overlap the interval of
# its quoted total.  The 48.3% budget is consistent only through the
# two-digit tuner factor: its other figures and total ask for a tuner
# efficiency of 0.9045-0.9097, which 91% admits and exactly 0.910 does not.
# The abstract does not settle whether the tuner is below 0.91 or another
# figure is misprinted; no builtin figure is changed (see ROADMAP).


def _half_unit(figure: str) -> float:
    return 0.5 * 10.0 ** Decimal(figure).as_tuple().exponent


def _budget_interval(factors) -> tuple[float, float]:
    """Range of products the quoted ``factors`` are compatible with."""
    low = chain_efficiency([(f, float(f) - _half_unit(f)) for f in factors])
    high = chain_efficiency([(f, min(float(f) + _half_unit(f), 1.0)) for f in factors])
    return low, high


def _budget_consistent(factors, total: str) -> bool:
    low, high = _budget_interval(factors)
    return low <= float(total) + _half_unit(total) and float(total) - _half_unit(total) <= high


@pytest.mark.parametrize(
    "factors,target",
    [
        pytest.param(("0.934", "0.854", "0.888"), "0.708", id="direct-readout-0.708"),
        pytest.param(("0.713", "0.91", "0.841", "0.888"), "0.483", id="tuned-readout-0.483"),
        pytest.param(("0.713", "0.91", "0.841", "0.806"), "0.439", id="beat-readout-0.439"),
    ],
)
def test_criterion_6_efficiency_budgets(factors, target):
    product = chain_efficiency([(f, float(f)) for f in factors])
    low, high = _budget_interval(factors)
    ok = _budget_consistent(factors, target)
    report(
        "criterion 6",
        ok,
        f"{' * '.join(factors)} = {product:.6f}, allowed [{low:.6f}, {high:.6f}], "
        f"quoted total {target}+-{_half_unit(target):g}",
    )
    assert ok


def test_criterion_6_rejects_inconsistent_budgets():
    tuned = ("0.713", "0.91", "0.841", "0.888")
    # of the three-decimal totals, the 48.3% budget's factors admit 0.481-0.488
    admitted = [n for n in range(400, 600) if _budget_consistent(tuned, f"0.{n}")]
    assert admitted == list(range(481, 489))
    # the beat readout's detector factor in place of 0.888, or no tuner factor
    assert not _budget_consistent(("0.713", "0.91", "0.841", "0.806"), "0.483")
    assert not _budget_consistent(("0.713", "0.841", "0.888"), "0.483")
    # with the tuner held at the modelled 0.91 only the 43.9% budget holds
    assert not _budget_consistent(("0.713", "0.9100", "0.841", "0.888"), "0.483")
    assert _budget_consistent(("0.713", "0.9100", "0.841", "0.806"), "0.439")


def test_criterion_7_montecarlo_matches_analytic(full_runs):
    worst = 0.0
    worst_label = ""
    count = 0
    for name, result in full_runs.items():
        for row in result.rows:
            if row.mc_db is None:
                continue
            gap = abs(row.mc_db - row.analytic_db)
            count += 1
            if gap > worst:
                worst, worst_label = gap, f"{name}:{row.quantity}"
    ok = worst <= 0.1
    report(
        "criterion 7",
        ok,
        f"{count} Monte-Carlo band powers vs analytic, worst gap {worst:.4f} dB "
        f"({worst_label}) <= 0.1",
    )
    assert count >= 5
    assert worst <= 0.1


def test_criterion_8a_uncertainty_on_random_chains():
    rng = np.random.default_rng(80801)
    worst = np.inf
    for _ in range(1000):
        state = random_chain_state(rng)
        worst = min(worst, symplectic_eigenvalues(state).min())
    ok = worst >= 1.0 - 1e-9
    report("criterion 8a", ok, f"1000 random chains, min symplectic eigenvalue {worst:.12f}")
    assert worst >= 1.0 - 1e-9


def test_criterion_8b_symplectic_form_preserved():
    # The shipped frequency shifters: AOM and tuner pair blocks on random
    # disjoint mode pairs, each op the block-diagonal symplectic_from_unitary of
    # np.kron(I, u), which equals the checked pair block _couple_pairs places
    # on every pair (TestPairCoupler in test_optics_components).
    rng = np.random.default_rng(80802)
    modes = tuple(ModeLabel.from_mhz(m) for m in (0.0, 1.0, 2.0, 3.0))
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        total = np.eye(2 * n)
        for _ in range(int(rng.integers(1, 5))):
            if rng.uniform() < 0.5:
                angle = rng.uniform(0, np.pi / 2)
                u = aom_unitary(math.cos(angle), math.sin(angle))
            else:
                u = abi_ideal_unitary(rng.uniform(0, 2 * np.pi))
            n_pairs = int(rng.integers(1, n // 2 + 1))
            order = rng.permutation(n)[: 2 * n_pairs]
            op = symplectic_from_unitary(np.kron(np.eye(n_pairs), u), [modes[i] for i in order])
            quads = [q for i in order for q in (2 * i, 2 * i + 1)]
            full = np.eye(2 * n)
            full[np.ix_(quads, quads)] = op.matrix
            total = full @ total
        j = symplectic_form(n)
        worst = max(worst, float(np.max(np.abs(total @ j @ total.T - j))))
    ok = worst <= 1e-12
    report("criterion 8b", ok, f"1000 composed ops, max |S J S^T - J| = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_8c_purity_product_at_unit_efficiency():
    worst = 0.0
    for pump in np.linspace(1.0, 979.0, 100):
        sq, anti = opo_variances(OpoParams(pump), 0.0, 1.0)
        worst = max(worst, abs(sq * anti - 1.0))
    ok = worst <= 1e-9
    report("criterion 8c", ok, f"100 pump values, max |squeezed*antisqueezed - 1| = {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_8d_tuner_matrix_identity():
    rng = np.random.default_rng(80804)
    s2 = 1 / np.sqrt(2)
    shifted = CARRIER.shifted_mhz(80.0)
    worst = 0.0
    for _ in range(100):
        phi = rng.uniform(0, 2 * np.pi)
        aom = symplectic_from_unitary(aom_unitary(s2, s2), (CARRIER, shifted)).matrix
        arm = np.eye(4)
        arm[2:, 2:] = phase_rotation(phi, shifted).matrix
        composed = aom @ arm @ aom
        closed = symplectic_from_unitary(abi_ideal_unitary(phi), (CARRIER, shifted)).matrix
        worst = max(worst, float(np.max(np.abs(composed - closed))))
    ok = worst <= 1e-12
    report("criterion 8d", ok, f"100 random phases, max entrywise gap = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_8e_loss_composition_law():
    rng = np.random.default_rng(80805)
    worst = 0.0
    for _ in range(100):
        state = random_chain_state(rng)
        mode = state.modes[int(rng.integers(0, state.n_modes))]
        e1, e2 = rng.uniform(0, 1, 2)
        double = apply_loss(apply_loss(state, mode, e1), mode, e2)
        single = apply_loss(state, mode, e1 * e2)
        worst = max(worst, float(np.max(np.abs(double.cov - single.cov))))
    ok = worst <= 1e-12
    report("criterion 8e", ok, f"100 random states, max covariance gap = {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_8f_squeezing_inversion_round_trip():
    worst = 0.0
    for r in np.linspace(0.0, 3.0, 121):
        for eta in (0.15, 0.483, 0.708, 1.0):
            anti = variance_from_r(r, eta, ANTISQUEEZED)
            worst = max(worst, abs(r_from_antisqueezing(db(anti), eta) - r))
    ok = worst <= 1e-9
    report("criterion 8f", ok, f"r in [0, 3] x 4 efficiencies, max round-trip error = {worst:.2e}")
    assert worst <= 1e-9
