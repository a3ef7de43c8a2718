"""Frozen records, without the import and generated code of ``dataclasses``.

A subclass lists its fields as its own annotations, any default as a class
attribute. It gets an ``__init__`` by position or keyword that ends in
``__post_init__``, equality within its class, the hash of its field tuple,
the ``Name(field=value, ...)`` repr, instances that refuse assignment, and
copies and pickles built anew from the fields, by ``__init__``."""
from operator import attrgetter

_setattr = object.__setattr__  # a write via __dict__ would slow later reads


class FrozenRecordError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    def __init_subclass__(cls):
        fields = cls._fields = tuple(cls.__annotations__)
        cls._names = frozenset(fields)
        cls._defaults = {f: vars(cls)[f] for f in fields if f in vars(cls)}
        # attrgetter gives the bare value for one name, a tuple for more
        get = attrgetter(*fields)
        key = get if len(fields) > 1 else lambda record: (get(record),)
        cls.__hash__ = lambda self: hash(key(self))
        cls.__eq__ = lambda self, other: (
            key(self) == key(other) if other.__class__ is self.__class__
            else NotImplemented
        )

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = {**dict(zip(fields, args)), **kwargs}
            values = {**self._defaults, **given}
            if len(given) != len(args) + len(kwargs) or values.keys() != self._names:
                raise TypeError(f"{type(self).__name__} takes each of {fields} once")
            args = map(values.__getitem__, fields)
        for name, value in zip(fields, args):
            _setattr(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        """Checks a subclass runs on each new instance."""

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, *value):
        raise FrozenRecordError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):  # state kept beside the fields is built again
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, checked by ``__post_init__``."""
    current = {name: getattr(record, name) for name in record._fields}
    return record.__class__(**{**current, **changes})
