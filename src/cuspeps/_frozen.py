"""Immutability for the package's value records.

A record keeps its fields in ``__slots__`` and writes each one once, in
``__init__``, through :func:`set_field`; :class:`Frozen` refuses every
later assignment or deletion, as a frozen dataclass does.  Each record
spells out its own ``__eq__``, ``__hash__`` and ``__repr__``: they run on
hot paths (dictionary keys, cache lookups), where a loop over the fields
would cost more than the work around it.
"""

__all__ = ["Frozen", "set_field"]

set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
