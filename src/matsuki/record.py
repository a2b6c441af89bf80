"""Immutable records: the frozen-dataclass behaviour without ``dataclasses``,
whose import pulls ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every
start-up of the command line.

A subclass lists its fields as annotations, with defaults as class values.
It gets a positional-or-keyword ``__init__``, equality within the class over
the field tuple, a readable repr, and a hash of the field tuple computed once
and kept.  Assignment and deletion raise ``AttributeError``; ``cached_property``
still works, since it writes to the instance dict directly.
"""

_set = object.__setattr__


class Record:
    _fields = ()
    _hash = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = (c.__dict__.get("__annotations__", {}) for c in reversed(cls.__mro__))
        fields = tuple(dict.fromkeys(f for a in annotations for f in a))
        defaults = tuple(getattr(cls, f) for f in fields if hasattr(cls, f))
        if any(hasattr(cls, f) for f in fields[:len(fields) - len(defaults)]):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
        # object.__setattr__ per field, as a frozen dataclass does: writing through
        # self.__dict__ would materialize the instance dict and slow every attribute read
        source = (f"def __init__(self, {', '.join(fields)}):\n"
                  + "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
                  + f"def _values(self):\n    return ({''.join(f'self.{f}, ' for f in fields)})\n")
        namespace = {"_set": _set}
        exec(source, namespace)
        init = namespace["__init__"]
        init.__defaults__, init.__qualname__ = defaults, f"{cls.__qualname__}.__init__"
        cls._fields, cls.__init__, cls._values = fields, init, namespace["_values"]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._values())
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
