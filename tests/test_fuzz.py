"""Fuzz the CLI with mutated acquisition blocks of the exported builtins."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest

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
    "rng_seed": integer(-3, 2**70),
    "sample_rate_msps": real(-10, 400),
    "band_center_mhz": real(-5, 120),
    "band_width_mhz": real(-1, 30),
}
change = st.sampled_from(sorted(FIELDS)).flatmap(lambda k: FIELDS[k].map(lambda v: (k, v)))
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    name=st.sampled_from(sorted(BUILTIN_SCENARIOS)),
    command=st.sampled_from(["run", "sweep"]),
    changes=st.lists(change, min_size=1, max_size=2, unique_by=lambda kv: kv[0]).map(dict),
)
def test_mutated_acquisition_exits_cleanly(name, command, changes):
    data = scenario_to_dict(get_scenario(name))
    data["acquisition"].update(BASE_ACQUISITION, **changes)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.json"
        config.write_text(json.dumps(data))
        argv = [command, str(config), "--mode", "both"]
        if command == "sweep":
            argv += ["--param", "pump_mw", "--values", "270,450"]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert not NAN.search(out.getvalue())
