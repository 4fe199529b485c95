"""``repro`` and ``repro.live`` export their public names lazily (PEP 562).

Lazy or not, each name in ``__all__`` must be the defining module's own
object, and the package must behave like a plain module towards ``dir``,
star imports, unknown names and ``python -m``.
"""

import importlib

import pytest

import repro
import repro.live


@pytest.mark.parametrize("package", [repro, repro.live], ids=lambda package: package.__name__)
def test_every_export_is_the_defining_modules_object(package):
    for name in package.__all__:
        value = getattr(package, name)
        assert vars(package)[name] is value  # resolved once, then a plain attribute
        if name in package._EXPORTS:
            home = importlib.import_module(f"{package.__name__}.{package._EXPORTS[name]}")
            assert value is getattr(home, name)
    assert repro.SimulationConfig is importlib.import_module("repro.simulator").SimulationConfig
    assert repro.live.run_trial is importlib.import_module("repro.live.harness").run_trial


@pytest.mark.parametrize("package", ["repro", "repro.live"])
def test_star_import_binds_every_export(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(importlib.import_module(package).__all__) <= set(namespace)


_DIR_CHECK = """
import repro, repro.live
for module in (repro, repro.live):
    assert set(module.__all__) <= set(dir(module)), module
"""


def test_dir_lists_every_export_before_any_is_resolved(fresh_python):
    done = fresh_python("-c", _DIR_CHECK)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("package", [repro, repro.live], ids=lambda package: package.__name__)
def test_an_unknown_name_is_an_attribute_error_naming_the_module(package):
    with pytest.raises(AttributeError, match=f"module '{package.__name__}' has no attribute 'no_such_name'"):
        package.no_such_name


@pytest.mark.parametrize("module", ["repro.live.server", "repro.live.compare"])
def test_the_live_entry_points_run_with_warnings_as_errors(fresh_python, module):
    # runpy warns (here: fails) when ``-m`` finds its module already imported by the package.
    done = fresh_python("-W", "error", "-m", module, "--help")
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
