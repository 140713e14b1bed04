"""PEP 562 lazy package surfaces.

A package that re-exports names from its submodules would import every
submodule (and every stdlib module they need) the moment it is imported.
:func:`lazy_exports` instead gives the package a module ``__getattr__``
that imports a name's defining module on first access and caches the name
in the package namespace, so later lookups are plain attribute reads.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for a package whose ``globals()`` is
    ``namespace`` and whose public names are ``exports`` (name → module)."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
