"""Base of the package's value types.

A subclass lists its fields as class annotations, in order, and its own
`__init__` stores each with `_set_field`, in that order, past the
refusing `__setattr__`, as a frozen dataclass's `__init__` does.  The
base gives equality within one class only, the hash of the field tuple,
and a `Name(field=value, ...)` repr.  Instances refuse assignment and
deletion.

The base reads fields by name, never through `self.__dict__`: CPython
keeps an instance's attributes inline until something asks for its
`__dict__`, and from then on every attribute read on that instance is
several times slower.  Storing into `self.__dict__` in `__init__` would
cost the same.
"""

_set_field = object.__setattr__


class Value:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))

    def _field_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __hash__(self):
        return hash(self._field_values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__match_args__, self._field_values())
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
