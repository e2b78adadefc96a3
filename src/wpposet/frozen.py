"""Small immutable value classes, without ``dataclasses``.

A subclass of :class:`Frozen` names its fields, at least two, in
``__slots__`` and gets the contract of a frozen dataclass over them:
construction from the field values in order, equality only with an
instance of the same class over equal fields, the hash of the field
tuple, the repr ``Name(field=value, ...)``, ``AttributeError`` on
assignment or deletion, and pickling.
"""

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if len(cls.__slots__) < 2:
            raise TypeError(f"{cls.__name__} needs at least two fields")
        # the field tuple, read in C: equality and hashing go through it
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes "
                            f"{len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
