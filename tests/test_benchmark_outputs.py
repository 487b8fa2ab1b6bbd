"""The benchmark in ``perfbench/`` checks every op's outputs and fails a run
whose outputs it judges wrong; a change under ``src/`` that breaks one of
those checks fails here, on the workloads' small op lists."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The harness runs each workload in its own interpreter with one compute
# thread; -B keeps the child from writing bytecode under perfbench/.
PROBE = """
import json, sys
from pathlib import Path
sys.path[:0] = ['perfbench', 'src']
from workloads import WORKLOADS
report = {}
for name, workload in WORKLOADS.items():
    problems = []
    for op in workload.build(7, Path(sys.argv[1]) / name, tiny=True):
        workload.prepare(op)
        problems += workload.check(op, workload.run(op))
    report[name] = problems
print(json.dumps(report))
"""
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def test_every_workload_output_passes_its_check(tmp_path):
    env = dict(os.environ, **{name: "1" for name in THREAD_ENV})
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROBE, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"mc_sweep": [], "analytic_grid": [], "run_export": []}
