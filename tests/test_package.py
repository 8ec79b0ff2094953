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


def test_fit_loads_no_masked_arrays(tmp_path):
    # np.median and np.percentile import numpy.ma, 11-14 ms of a cold start
    code = (
        "import sys; from bgev.cli import main; "
        f"rc = main(['fit', '--input', 'bundled:bimodal', '--out-dir', {str(tmp_path)!r}]); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    assert res.stdout.split()[-2:] == ["0", "False"]
