"""Lazy package exports (PEP 562).

A package ``__init__`` names each export and the submodule that defines
it; the submodule is imported the first time one of its names is read.
So ``import repro.serve.server`` loads the daemon's modules only, not
the VM and the compiler that other exports of ``repro`` live in::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.trailer": ("ObjectRecord", "Trailer"),
        ...
    })

``from pkg import *`` and ``getattr`` resolve through the returned
``__getattr__``; ``dir(pkg)`` lists every export before it is loaded.

An export named like a submodule of its own package (``repro.lint``'s
``render``) must be imported eagerly instead: loading the submodule
binds the module under that name on the package, hiding the export.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``, resolving
    each name in ``exports`` (submodule -> names) from its submodule."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        # Bind it on the package so the next read skips this hook.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
