"""Fixture: a submodule named by its package's ``__all__``."""

__all__ = ["VALUE"]

VALUE = 1
