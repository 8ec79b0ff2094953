import importlib
import subprocess
import sys

import pytest

import bgev
from tests.conftest import child_env

PARAMS = ["--xi", "0.5", "--mu", "0", "--sigma", "1", "--delta", "2"]


def loaded_modules(code):
    """The names in sys.modules after ``code`` runs in a fresh interpreter."""
    code += "\nimport sys; print('\\n'.join(sys.modules))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    return set(res.stdout.split())


def command_modules(argv):
    """The names in sys.modules after ``bgev argv`` runs, with exit 0, in a
    fresh interpreter."""
    code = f"import contextlib, io; from bgev.cli import main\nwith contextlib.redirect_stdout(io.StringIO()): assert main({argv!r}) == 0"
    return loaded_modules(code)


def test_import_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded by conftest
    assert not {m for m in loaded_modules("import bgev") if m.split(".")[0] == "scipy"}


def test_import_loads_no_process_pool():
    # only `bgev sim --parallelism N` with N > 1 needs it
    assert "concurrent.futures.process" not in loaded_modules("import bgev")


def test_import_loads_no_numpy_and_no_submodule():
    loaded = loaded_modules("import bgev")
    assert "bgev" in loaded
    assert {m for m in loaded if m.startswith("bgev.") or m.split(".")[0] == "numpy"} == set()


def test_fit_loads_no_masked_arrays(tmp_path):
    # np.median and np.percentile import numpy.ma, 11-14 ms of a cold start
    loaded = command_modules(["fit", "--input", "bundled:bimodal", "--out-dir", str(tmp_path)])
    assert "bgev.pipeline" in loaded and "numpy.ma" not in loaded


def test_fit_loads_no_module_only_sim_or_the_tests_need(tmp_path):
    loaded = command_modules(["fit", "--input", "bundled:bimodal", "--out-dir", str(tmp_path)])
    assert "bgev.pipeline" in loaded
    assert loaded.isdisjoint({"bgev.sim", "configparser", "concurrent.futures.process", "scipy"})


def test_mle_loads_no_distribution_module():
    # fitting needs the likelihood kernel, not the law's evaluation
    loaded = loaded_modules("import bgev.mle")
    assert "bgev.likelihood" in loaded
    assert loaded.isdisjoint({"bgev.distribution", "bgev.gev", "bgev.incgamma", "bgev.transform"})


@pytest.mark.parametrize(
    "argv", [["eval", *PARAMS, "--x", "1", "--q", "0.5"], ["sample", *PARAMS, "-n", "3", "--seed", "1"]]
)
def test_eval_and_sample_load_no_fitting_module(argv):
    loaded = command_modules(argv)
    assert "bgev.distribution" in loaded
    assert loaded.isdisjoint({"bgev.pipeline", "bgev.mle", "bgev.gof", "bgev.sim"})


def test_every_public_name_is_its_defining_modules_object():
    for name in bgev.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"bgev.{bgev._ORIGIN[name]}")
        assert getattr(bgev, name) is getattr(module, name), name
        assert name in getattr(module, "__all__", ()), name


def test_dir_covers_all_and_star_import_binds_every_name():
    assert set(bgev.__all__) <= set(dir(bgev))
    namespace = {}
    exec("from bgev import *", namespace)
    assert {n: namespace[n] for n in bgev.__all__} == {n: getattr(bgev, n) for n in bgev.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'fit_mle_rows'"):
        bgev.fit_mle_rows
    assert not hasattr(bgev, "nonexistent")


def test_submodules_are_attributes():
    assert bgev.sim is importlib.import_module("bgev.sim")


@pytest.mark.parametrize(
    "name, old_module",
    [("InputDataError", "pipeline"), ("NotConvergedError", "pipeline"), ("InfeasibleStartError", "mle")],
)
def test_moved_error_types_are_one_class(name, old_module):
    from bgev import params

    cls = getattr(params, name)
    assert getattr(bgev, name) is cls
    assert getattr(importlib.import_module(f"bgev.{old_module}"), name) is cls
    assert name in importlib.import_module(f"bgev.{old_module}").__all__
