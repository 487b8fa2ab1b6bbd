"""Fuzz the CLI with mutated acquisition blocks, chains and top-level fields
of the exported builtins."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

from conftest import apply_chain_change, chain_change, mostly
from sqztune.cli import main
from sqztune.scenarios import BUILTIN_SCENARIOS, get_scenario, scenario_to_dict

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Small enough that every accepted config runs in milliseconds.
BASE_ACQUISITION = dict(samples_per_round=1024, rounds=20, band_width_mhz=0.4)

# Mostly values of the right kind near the valid range, some of the wrong kind.
odd = st.sampled_from([True, False, None, "1", float("nan"), float("inf"), -float("inf")])


def integer(lo, hi):
    ints = st.integers(lo, hi)
    return st.one_of(ints, ints.map(float), ints.map(lambda i: i + 0.5), odd)


def real(lo, hi):
    return st.one_of(st.floats(lo, hi), st.integers(lo, hi), odd)


FIELDS = {
    "samples_per_round": integer(-4, 2048),
    "rounds": integer(-1, 6),
    "rng_seed": integer(-3, 2**130),
    # Past the 1e6 MS/s cap, which keeps the source Lorentzian finite.
    "sample_rate_msps": real(-10, 400) | st.sampled_from([1e6, 1.5e6, 1e300]),
    "band_center_mhz": real(-5, 120),
    "band_width_mhz": real(-1, 30),
}
change = st.sampled_from(sorted(FIELDS)).flatmap(lambda k: FIELDS[k].map(lambda v: (k, v)))
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def run_cli(data, argv):
    """Run ``sqztune`` on the config; assert exit 0/1/2, no traceback, no NaN."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.json"
        config.write_text(json.dumps(data))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(config), *argv[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not NAN.search(out.getvalue())


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    name=st.sampled_from(sorted(BUILTIN_SCENARIOS)),
    command=st.sampled_from(["run", "sweep"]),
    changes=st.lists(change, min_size=1, max_size=2, unique_by=lambda kv: kv[0]).map(dict),
)
def test_mutated_acquisition_exits_cleanly(name, command, changes):
    data = scenario_to_dict(get_scenario(name))
    data["acquisition"].update(BASE_ACQUISITION, **changes)
    argv = [command, "--mode", "both"]
    if command == "sweep":
        argv += ["--param", "pump_mw", "--values", "270,450"]
    run_cli(data, argv)


pump = mostly(st.sampled_from([90.0, 270.0, 450.0, 1.0, 0.0]) | st.floats(0, 1000),
              "450", True, -10.0, 2000.0, float("nan"))
TOP_LEVEL = {
    "pump_sweep_mw": st.lists(pump, min_size=1, max_size=3),
    "mc_pump_mw": st.one_of(st.none(), st.lists(pump, min_size=1, max_size=2)),
    "electronic_floor": mostly(st.floats(0, 1e3) | st.sampled_from([1e6, 1e7, 1e150, 1e308]),
                               -0.1, True, float("inf")),
    "interference_tones": st.lists(
        st.tuples(mostly(st.sampled_from([-3.0, 0.0, 1.0, 80.0, 200.0]), True, float("nan")),
                  mostly(st.floats(0, 50), -1.0)).map(list),
        min_size=1, max_size=2),
}
top_change = st.sampled_from(sorted(TOP_LEVEL)).flatmap(lambda k: TOP_LEVEL[k].map(lambda v: (k, v)))
# The source bandwidth, around and below its 1e-6 MHz bound; None leaves it.
bandwidth = st.none() | mostly(st.floats(1e-6, 100) | st.sampled_from([1e-6, 1e-300, 5e-324]),
                               0.0, -1.0, True, float("inf"))


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    name=st.sampled_from(sorted(BUILTIN_SCENARIOS)),
    command=st.sampled_from(["run", "pump_mw", "hd_efficiency", "delta_theta_rad"]),
    mode=st.sampled_from(["analytic", "both", "montecarlo"]),
    chain_changes=st.lists(chain_change, max_size=2),
    top_changes=st.lists(top_change, max_size=2, unique_by=lambda kv: kv[0]).map(dict),
    bandwidth=bandwidth,
)
def test_mutated_chain_and_top_level_fields_exit_cleanly(
    name, command, mode, chain_changes, top_changes, bandwidth
):
    hypothesis.assume(chain_changes or top_changes or bandwidth is not None)
    data = scenario_to_dict(get_scenario(name))
    data["acquisition"].update(BASE_ACQUISITION)
    if bandwidth is not None:
        data["chain"][0]["bandwidth_mhz"] = bandwidth
    for change in chain_changes:
        apply_chain_change(data["chain"], change)
    data.update(top_changes)
    argv = ["run", "--mode", mode]
    if command != "run":
        argv = ["sweep", "--mode", mode, "--param", command, "--values", "0.5,0.9"]
    run_cli(data, argv)
