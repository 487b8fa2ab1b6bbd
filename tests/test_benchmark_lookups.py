"""The benchmark in ``perfbench/`` looks sqztune functions up by name; a
deletion under ``src/`` that breaks one of those lookups fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Importing ``run`` pins thread variables in os.environ, so it runs in a child
# interpreter; -B keeps that child from writing bytecode under perfbench/.
PROBE = """
import sys
sys.path[:0] = ['perfbench', 'src']
import run
import workloads
missing = [t.name for t in run.trace_targets() if not callable(getattr(t.owner, t.attr, None))]
print('missing', *missing)
"""


def test_every_trace_target_resolves():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", PROBE], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["missing"]
