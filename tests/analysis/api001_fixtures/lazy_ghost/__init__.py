"""Fixture: a lazy package whose ``__all__`` names a submodule that is
not there.  ``leaf`` exists beside it; ``ghost`` does not, so API001
still fires."""

import importlib

__all__ = ["leaf", "ghost"]  # expect: API001


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(name)
