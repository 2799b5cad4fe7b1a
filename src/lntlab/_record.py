"""Base of the read-only records that check or convert their arguments.

The other records are ``typing.NamedTuple`` classes or plain classes: a
dataclass decoration would compile its generated methods at every import.
"""


class Frozen:
    """A subclass names its fields in ``__slots__``, in constructor order,
    and sets them once through :meth:`_set`. Records compare, hash and
    pickle by those values, and refuse assignment."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _refuse(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __setattr__ = __delattr__ = _refuse

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
