"""numpy is the only third-party package porelife needs at run time (``pyproject.toml``)."""
import json
import os
import subprocess
import sys

#: Top-level packages in ``sys.modules`` after importing the CLI, printed as JSON.
LOADED = "import json, sys, porelife.cli; print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))"


def test_cli_import_loads_no_third_party_package_but_numpy():
    # -S skips site's .pth hooks, which may import packages of their own;
    # the test's own path still finds porelife and numpy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in sys.path if path)}
    run = subprocess.run([sys.executable, "-S", "-c", LOADED], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout)) - set(sys.stdlib_module_names) - {"__main__"}
    assert loaded == {"numpy", "porelife"}
