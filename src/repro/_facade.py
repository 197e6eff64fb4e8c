"""Package facades that import a public name's module on its first use.

Every package ``__init__`` is one table, public name → the leaf module
that defines it, handed to :func:`facade` (PEP 562).  ``from repro.core
import PreparationPipeline`` then imports ``repro.core.pipeline`` and
what it needs, not the package's other modules, so a CLI op loads (and,
without ``.pyc`` files, compiles) only the modules it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Callable, Dict, List, Optional, Tuple


def facade(
    package: str, table: Dict[str, Optional[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``table`` maps each public name to its module, relative to
    ``package`` (``"point"``, or ``"geometry.point"`` from the top
    package); ``None`` exports the submodule of that name itself.
    """
    module = sys.modules[package]

    class Facade(ModuleType):
        def __setattr__(self, name: str, value: object) -> None:
            # The import system binds each submodule it loads onto its
            # package; a public name spelled like its own module
            # (geometry's ``offset``) stays bound to the name.
            if table.get(name) == name and isinstance(value, ModuleType):
                value = getattr(value, name)
            super().__setattr__(name, value)

    module.__class__ = Facade

    def __getattr__(name: str) -> object:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        leaf = import_module(f"{package}.{table[name] or name}")
        value = leaf if table[name] is None else getattr(leaf, name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(vars(module).keys() | table.keys())

    return __getattr__, __dir__, list(table)
