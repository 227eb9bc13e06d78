"""Lazy package exports (PEP 562): a package name resolves on first access.

A package ``__init__`` lists what it re-exports as one table
``{name: submodule}`` and lets :func:`lazy_exports` build its module-level
``__getattr__`` and ``__dir__``::

    _EXPORTS = {"Histogram": "metrics", "Instrumentation": "hooks"}
    __getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)

``import repro.obs`` then loads no submodule; ``repro.obs.Histogram``
imports ``repro.obs.metrics`` on first use and stores the object in the
package, so every later access is a plain attribute lookup and resolves
to the same object an eager ``from .metrics import Histogram`` bound.
A name that equals its submodule's name exports the submodule itself
(``repro.faults.crashpoints``).  This module imports nothing else from
``repro``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, str], eager: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each lazily exported name to the submodule that defines
    it, relative to ``package`` (or, when ``package`` is a plain module, to
    the package holding it: ``repro.obs.hooks`` names ``repro.obs.live``
    as ``"live"``); ``eager`` lists the names the package binds itself.
    ``__all__`` is ``eager`` followed by the table's names.
    """
    exported: Dict[str, str] = dict(table)
    names = [*eager, *exported]

    def __getattr__(name: str) -> object:
        sub = exported.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        home = sys.modules[package]
        base = package if hasattr(home, "__path__") else package.rpartition(".")[0]
        module = importlib.import_module(f"{base}.{sub}")
        value = module if name == sub else getattr(module, name)
        setattr(home, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(names))

    return __getattr__, __dir__, names
