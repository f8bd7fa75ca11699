"""The base of equiko's immutable value classes.

A value class declares its fields once, in `__slots__`, and `Value.__init__`
sets them.  Frozen dataclasses would give these classes the same behaviour,
but importing `dataclasses` pulls in `inspect`, and building each frozen
dataclass execs its generated methods: together about 27 ms of every CLI
start on a 2-vCPU Xeon with Python 3.11, when `import equiko.cli` took
39 ms in all.
"""

from operator import attrgetter


class Value:
    """An immutable record over `__slots__`.

    A subclass lists its fields once, in `__slots__`, and `__init__` sets
    them from values in that order, then by name.  A subclass that
    defaults, converts or checks a field keeps an `__init__` whose
    parameters follow the slot order and that calls `super().__init__`
    first.  It gets equality and a hash on the field values (an instance of
    another class is never equal), the repr `Name(field=value, ...)`,
    copies that rebuild through `__init__`, and an `AttributeError` on any
    assignment or deletion.  A subclass may still define its own `__eq__`,
    `__hash__` or `__repr__`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if len(cls.__slots__) < 2:  # attrgetter of one name gives no tuple
            raise TypeError(f"{cls.__name__} needs two or more fields")
        # the field values as one tuple, in `__init__` order
        cls._fields = attrgetter(*cls.__slots__)

    def __init__(self, *values, **named):
        names = self.__slots__
        if named:  # the fields after the positional values, in slot order
            values += tuple(named.pop(name) for name in names[len(values):] if name in named)
        if named or len(values) != len(names):  # a field missing, repeated or unknown
            wrong = f" and ({', '.join(named)}) twice or unknown" if named else ""
            raise TypeError(f"{self.__class__.__qualname__} takes {len(names)} fields "
                            f"({', '.join(names)}), got {len(values)}{wrong}")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
