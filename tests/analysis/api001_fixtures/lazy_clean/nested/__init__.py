"""Fixture: a subpackage named by its parent's ``__all__``."""

__all__ = []
