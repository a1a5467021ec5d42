"""The one base of the package's frozen value records.

A record names its fields in order as __match_args__ and holds them in
__slots__.  Records are equal, and hash, by type and fields; they print
as Name(field=value, ...), refuse assignment and deletion, and pickle
and copy through their constructor.  Unlike dataclasses, they cost no
import and no generated code when a process starts.
"""


class _Record:
    __slots__ = ()
    __match_args__ = ()

    def __init__(self, *args, **kwargs):
        """Bind args, then keywords, to the fields, each exactly once.
        A record with defaults or checks passes every field on in order."""
        names = self.__match_args__
        values = dict(zip(names, args), **kwargs)
        if (len(args) + len(kwargs) != len(names)
                or values.keys() != set(names)):
            raise TypeError(f"{type(self).__name__}() takes exactly the "
                            f"fields {names}")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash((type(self), self._values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a "
                             f"frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a "
                             f"frozen {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values()
