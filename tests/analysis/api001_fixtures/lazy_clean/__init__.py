"""Fixture: a lazy package whose ``__all__`` names its own submodules.

``leaf`` is a sibling module and ``nested`` a sibling package; both are
bound on first access by ``__getattr__`` and by ``from pkg import *``.
API001 must stay quiet.
"""

import importlib

__all__ = ["helper", "leaf", "nested"]


def helper():
    """A name the package defines itself."""
    return True


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(name)
