"""SHA-256 digests of sqztune's command-line outputs, for comparing two checkouts.

Usage: python tools/output_digests.py [CHECKOUT]

Runs a fixed list of ``python -m sqztune`` commands against CHECKOUT's own
``src/`` (default: the checkout holding this script), in one temporary
directory with relative output paths, at seed 11.  Besides the builtins it
runs two variants of fig5a's exported config: one with its tone moved off
the grid (its spectrum leaks into every bin) and one with a second tone.
For each command it prints the exit code and the SHA-256 of its stdout and
stderr, then the SHA-256 of every file the commands wrote.  A change that keeps
every output byte-identical prints the same text as its parent:

    python tools/output_digests.py > after.txt
    python tools/output_digests.py ../parent > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "11"
SWEEPS = ("fig4a", "fig4b", "fig5b", "fig5c")
AXES = {
    "pump_mw": "90,270,450,630",
    "delta_theta_rad": "-0.2,0,0.1047",
    "hd_efficiency": "0.5,0.888,1.0",
}
# fig5a variants, by config file name: their interference tones (MHz, power)
TONED = {
    "fig5a_offgrid.json": [[80.0013, 30.0]],
    "fig5a_two_tones.json": [[80.0, 30.0], [60.0, 5.0]],
}


def commands() -> list[list[str]]:
    """The command list; ``OUT`` stands for the command's own output directory."""
    seeded = ["--seed", SEED, "--out", "OUT"]
    cmds = [
        ["run", name, "--mode", "both", *seeded, "--format", fmt]
        for name in ("fig4a", "fig4b", "fig5a", "fig5b", "fig5c")
        for fmt in ("csv", "json")
    ]
    cmds += [
        ["sweep", name, "--param", param, f"--values={values}", "--mode", mode, *seeded,
         "--format", fmt]
        for name in SWEEPS
        for param, values in AXES.items()
        for mode in ("analytic", "both")
        for fmt in ("csv", "json")
    ]
    cmds += [["list", "--export", "OUT"]]
    cmds += [["reference", "--out", "OUT", "--format", fmt] for fmt in ("csv", "json")]
    cmds += [  # configuration errors: exit 2
        ["run", "fig9z"],
        ["run", "fig4a", "--seed", "-1"],
        ["sweep", "fig4b", "--param", "lo_power", "--values", "1"],
        ["sweep", "fig5a", "--param", "pump_mw", "--values", "450"],
        ["sweep", "fig4b", "--param", "pump_mw", "--values", "980"],
    ]
    cmds += [["run", config, "--mode", "both", *seeded, "--format", "csv"] for config in TONED]
    return cmds


def write_configs(work: Path, env: dict[str, str]) -> None:
    """Write the ``TONED`` configs into ``work``, each fig5a's export with its tones replaced."""
    subprocess.run([sys.executable, "-B", "-m", "sqztune", "list", "--export", "builtins"],
                   cwd=work, env=env, capture_output=True, check=True)
    base = json.loads((work / "builtins" / "fig5a.json").read_text())
    for config, tones in TONED.items():
        (work / config).write_text(json.dumps({**base, "interference_tones": tones}))


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    src = checkout / "src"
    if not (src / "sqztune" / "__init__.py").is_file():
        print(f"output_digests: no sqztune sources under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_configs(work, env)
        for index, cmd in enumerate(commands()):
            out = f"out{index:02d}"
            argv_ = [out if arg == "OUT" else arg for arg in cmd]
            proc = subprocess.run([sys.executable, "-B", "-m", "sqztune", *argv_], cwd=work,
                                  env=env, capture_output=True)
            print(" ".join(argv_))
            print(f"  exit {proc.returncode}  stdout {sha(proc.stdout)}  stderr {sha(proc.stderr)}")
        print("files")
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            print(f"  {sha(path.read_bytes())}  {path.relative_to(work).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
