import subprocess
import sys

from tests.conftest import child_env


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded by conftest
    code = "import bgev, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    assert res.stdout.strip() == "[]"


def test_import_loads_no_process_pool():
    # only `bgev sim --parallelism N` with N > 1 needs it
    code = "import bgev, sys; print('concurrent.futures.process' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    assert res.stdout.strip() == "False"
