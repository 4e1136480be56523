"""Shared plugin-registry helper.

The project has two name → factory registries — test back ends
(:mod:`repro.testback`) and simulators (:mod:`repro.testback.runner`).
:class:`Registry` is the one implementation they share: a mapping from
names to factories with uniform registration validation, duplicate-name
protection, and unknown-name errors that carry did-you-mean
suggestions.

A :class:`Registry` behaves like a mutable mapping, so existing code
(and tests) that treated the registries as plain dicts —
``sorted(BACKENDS)``, ``"stf" in BACKENDS``, ``del BACKENDS[name]`` —
keeps working unchanged.

::

    BACKENDS = Registry("test backend")
    BACKENDS.register("stf", StfBackend)
    BACKENDS.get("sft")   # UnknownNameError: ... did you mean 'stf'?
"""

from __future__ import annotations

import difflib
from collections.abc import MutableMapping

__all__ = ["Registry", "RegistryError", "UnknownNameError",
           "DuplicateNameError"]

_MISSING = object()


class RegistryError(Exception):
    """Base class for registry failures."""


class UnknownNameError(RegistryError, KeyError):
    """Lookup of a name that was never registered.

    Subclasses :class:`KeyError` so legacy ``except KeyError`` handlers
    (and tests asserting on them) keep working.
    """


class DuplicateNameError(RegistryError, ValueError):
    """Registration of a name that is already taken (without ``replace``)."""


class Registry(MutableMapping):
    """A name → factory mapping with validated registration.

    Args:
        kind: human-readable description of what is registered
            ("test backend", "simulator") — used in every error
            message.
        validator: optional ``validator(name, factory)`` hook run before
            insertion; raise ``TypeError``/``ValueError`` to reject.
    """

    def __init__(self, kind: str, *, validator=None, initial=None):
        self.kind = kind
        self._validator = validator
        self._entries: dict[str, object] = {}
        if initial:
            for name, factory in initial.items():
                self.register(name, factory)

    # -- registration ---------------------------------------------------

    def register(self, name: str, factory, *, replace: bool = False) -> None:
        """Register ``factory`` under ``name``.

        Raises :class:`DuplicateNameError` if the name is taken and
        ``replace`` is false, and whatever the validator raises for a
        malformed factory.  The registry is untouched on any failure.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(
                f"{self.kind} name must be a non-empty string, got {name!r}")
        if self._validator is not None:
            self._validator(name, factory)
        if name in self._entries and not replace:
            raise DuplicateNameError(
                f"{self.kind} {name!r} is already registered; pass "
                f"replace=True to overwrite")
        self._entries[name] = factory

    def unregister(self, name: str) -> None:
        if name not in self._entries:
            raise self._unknown(name)
        del self._entries[name]

    # -- lookup ---------------------------------------------------------

    def get(self, name: str, default=_MISSING):
        """The factory registered under ``name``.

        Unlike ``dict.get`` this raises :class:`UnknownNameError` (with
        a did-you-mean suggestion) when the name is unknown and no
        ``default`` is supplied.
        """
        try:
            return self._entries[name]
        except KeyError:
            if default is not _MISSING:
                return default
            raise self._unknown(name) from None

    def create(self, name: str, *args, **kwargs):
        """Instantiate: ``registry.get(name)(*args, **kwargs)``."""
        return self.get(name)(*args, **kwargs)

    def names(self) -> list[str]:
        return sorted(self._entries)

    def _unknown(self, name) -> UnknownNameError:
        known = ", ".join(sorted(self._entries)) or "none registered"
        hint = ""
        if isinstance(name, str) and self._entries:
            close = difflib.get_close_matches(name, self._entries, n=1,
                                              cutoff=0.6)
            if close:
                hint = f" — did you mean {close[0]!r}?"
        return UnknownNameError(
            f"unknown {self.kind} {name!r} (available: {known}){hint}")

    # -- mapping protocol ----------------------------------------------

    def __getitem__(self, name):
        try:
            return self._entries[name]
        except KeyError:
            raise self._unknown(name) from None

    def __setitem__(self, name, factory):
        self.register(name, factory, replace=True)

    def __delitem__(self, name):
        self.unregister(name)

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"
