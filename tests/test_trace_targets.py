"""Every entry point that the benchmark tracer wraps still exists.

``bench/tracer.install`` records a target it cannot find in ``Tracer.missing``
instead of failing, so a refactor that renames or deletes a traced function
would silently drop a span from the per-layer metrics.  ``install`` rewrites
the cuspeps modules in place, so it runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import cuspeps

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = (
    "import json, tracer; t = tracer.Tracer(); tracer.install(t); "
    "print(json.dumps(t.missing))"
)


def test_every_trace_target_exists():
    src = os.path.dirname(os.path.dirname(cuspeps.__file__))
    path = [src, os.path.join(REPO, "bench"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
