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
A name that equals its submodule's name resolves to that submodule's
attribute of the same name, or to the submodule itself when it has none.
This module imports nothing else from ``repro``.
"""

from __future__ import annotations

import importlib
import sys
import types
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


class _ExportsFirst(types.ModuleType):
    """A package whose exported names win over same-named submodules.

    Importing ``pkg.sub`` makes the import system ``setattr(pkg, "sub",
    module)``.  Where ``sub`` is also an exported name (``critical_path``
    the function from ``critical_path`` the module), the package keeps the
    exported object, as it does when the export is bound eagerly.
    """

    def __setattr__(self, name: str, value: object) -> None:
        if (isinstance(value, types.ModuleType)
                and value.__name__ == f"{self.__name__}.{name}"
                and name in self.__dict__.get("__all__", ())):
            value = getattr(value, name, value)
        super().__setattr__(name, value)


def lazy_exports(
    package: str, table: Mapping[str, str], eager: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each lazily exported name to the submodule (relative to
    ``package``) that defines it; ``eager`` lists the names the package
    binds itself.  ``__all__`` is ``eager`` followed by the table's names.
    """
    exported: Dict[str, str] = dict(table)
    names = [*eager, *exported]
    if any(name == sub for name, sub in exported.items()):
        sys.modules[package].__class__ = _ExportsFirst

    def __getattr__(name: str) -> object:
        sub = exported.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{sub}")
        value = getattr(module, name, module) if name == sub else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(names))

    return __getattr__, __dir__, names
