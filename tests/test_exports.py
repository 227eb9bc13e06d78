"""Lazy package exports resolve to the same objects eager imports bound."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))


def _lazy_packages():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
    return [name for name in names if hasattr(importlib.import_module(name), "_EXPORTS")]


LAZY = _lazy_packages()


def _fresh(code: str) -> object:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_the_stack_packages_are_lazy():
    for name in ("repro", "repro.obs", "repro.workloads", "repro.replay"):
        assert name in LAZY


@pytest.mark.parametrize("package", LAZY)
def test_all_is_the_eager_names_then_the_table(package):
    # in a fresh process: the eager names are bound at import, the
    # table's names are not
    bound = _fresh(
        f"import json, {package} as pkg\n"
        "print(json.dumps([n for n in pkg.__all__ if n in vars(pkg)]))"
    )
    module = importlib.import_module(package)
    table = module._EXPORTS
    assert not set(bound) & set(table), "a lazy name was bound at import"
    assert module.__all__ == bound + list(table)


@pytest.mark.parametrize("package", LAZY)
def test_every_name_resolves_to_its_submodules_object(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name, sub in module._EXPORTS.items():
        source = importlib.import_module(f"{package}.{sub}")
        expected = source if name == sub else getattr(source, name)
        assert getattr(module, name) is expected, name
        assert name in listed, name
    for name in module.__all__:
        assert name in listed, name


@pytest.mark.parametrize("package", LAZY)
def test_unknown_name_raises_attribute_error_naming_it(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        module.no_such_export


def test_star_import_binds_every_export():
    namespace = {}
    exec("from repro.obs import *", namespace)
    import repro.obs as obs

    assert all(namespace[name] is getattr(obs, name) for name in obs.__all__)


#: plane hooks modules -> {lazy name: the module that defines it}
PLANE_HOOKS = {
    "repro.obs.hooks": {"Instrumentation": "repro.obs.live",
                        "AttributionInstrumentation": "repro.obs.live"},
    "repro.faults.hooks": {"FaultPlane": "repro.faults.plane",
                           "FaultPlaneStats": "repro.faults.plane"},
}


@pytest.mark.parametrize("module", list(PLANE_HOOKS))
def test_plane_hooks_name_their_live_classes_lazily(module):
    table = PLANE_HOOKS[module]
    bound = _fresh(
        f"import json, {module} as hooks\n"
        "print(json.dumps(sorted(vars(hooks))))"
    )
    assert not set(table) & set(bound), "a live class was bound at import"
    hooks = importlib.import_module(module)
    for name, home in table.items():
        assert getattr(hooks, name) is getattr(importlib.import_module(home), name)
        assert name in dir(hooks)
    with pytest.raises(AttributeError, match="no_such_export"):
        hooks.no_such_export


def test_arming_a_plane_installs_its_live_class():
    from repro.faults import FaultPlan, hooks as fault_hooks
    from repro.obs import hooks as obs_hooks

    try:
        assert isinstance(obs_hooks.enable(), obs_hooks.Instrumentation)
        assert isinstance(fault_hooks.arm(FaultPlan()), fault_hooks.FaultPlane)
    finally:
        obs_hooks.disable()
        fault_hooks.disarm()
    assert not obs_hooks.current().enabled and not fault_hooks.current().enabled
