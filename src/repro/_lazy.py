"""Lazy re-exports for the package facades (PEP 562).

``repro``, ``repro.core``, ``repro.runtime`` and ``repro.runtime.remote``
each re-export objects defined in their submodules.  Importing those
submodules eagerly would make every import of any ``repro`` module load
the whole package: a shard node would pull in the accounting tier, the
engine and the coordinator it must never ship.  Instead a facade names
each export's defining module, and :func:`lazy_exports` resolves a name
on first attribute access (``repro.GuptRuntime``, ``from repro import
GuptRuntime``, ``from repro import *``) and caches it in the facade's
namespace, so later accesses are plain attribute lookups.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for a lazy facade.

    ``exports`` maps each defining module to the names the facade
    re-exports from it.  Assign the result in the facade's namespace::

        __all__, __getattr__, __dir__ = lazy_exports(__name__, {...})
    """
    namespace = sys.modules[package].__dict__
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(origin))

    return sorted(origin), __getattr__, __dir__
