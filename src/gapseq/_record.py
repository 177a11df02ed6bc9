"""Frozen record classes, defined without generating code.

``record`` gives a class what ``dataclasses.dataclass(frozen=True)``
gives it, from the same annotations:

- ``__init__`` over the annotated fields in order (at most five),
  positional or keyword, with class attributes as defaults; it ends in
  ``self.__post_init__()`` when the class has one, looked up on each
  call;
- ``__eq__`` and ``__hash__`` on the tuple of field values, with
  ``NotImplemented`` for an instance of another class;
- the repr ``Name(field=value, ...)`` and ``__match_args__``;
- assignment and deletion raising ``FrozenRecordError``.

Every method is a plain function or closure: no source is generated,
compiled or inspected, so a record costs next to nothing at import, and
``__init__`` binds its arguments as fast as a dataclass's.
``as_dict`` is ``dataclasses.asdict`` for records whose fields hold
records, but no lists or tuples of them.
"""

from __future__ import annotations

_object_setattr = object.__setattr__


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _values(self: object) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _eq(self: object, other: object) -> object:
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self: object) -> int:
    return hash(_values(self))


def _repr(self: object) -> str:
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self: object, name: str, value: object) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self: object, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


# One hand-written __init__ template per arity. record closes one over
# the field names and renames its parameters after them with
# ``__code__.replace``, so the call binds positional and keyword
# arguments, and raises the TypeErrors, of a plain Python function.


def _init0(names: tuple[str, ...], post_init: bool) -> object:
    def __init__(self):
        if post_init:
            self.__post_init__()
    return __init__


def _init1(names: tuple[str, ...], post_init: bool) -> object:
    (a,) = names

    def __init__(self, x_a):
        _object_setattr(self, a, x_a)
        if post_init:
            self.__post_init__()
    return __init__


def _init2(names: tuple[str, ...], post_init: bool) -> object:
    a, b = names

    def __init__(self, x_a, x_b):
        _object_setattr(self, a, x_a)
        _object_setattr(self, b, x_b)
        if post_init:
            self.__post_init__()
    return __init__


def _init3(names: tuple[str, ...], post_init: bool) -> object:
    a, b, c = names

    def __init__(self, x_a, x_b, x_c):
        _object_setattr(self, a, x_a)
        _object_setattr(self, b, x_b)
        _object_setattr(self, c, x_c)
        if post_init:
            self.__post_init__()
    return __init__


def _init4(names: tuple[str, ...], post_init: bool) -> object:
    a, b, c, d = names

    def __init__(self, x_a, x_b, x_c, x_d):
        _object_setattr(self, a, x_a)
        _object_setattr(self, b, x_b)
        _object_setattr(self, c, x_c)
        _object_setattr(self, d, x_d)
        if post_init:
            self.__post_init__()
    return __init__


def _init5(names: tuple[str, ...], post_init: bool) -> object:
    a, b, c, d, e = names

    def __init__(self, x_a, x_b, x_c, x_d, x_e):
        _object_setattr(self, a, x_a)
        _object_setattr(self, b, x_b)
        _object_setattr(self, c, x_c)
        _object_setattr(self, d, x_d)
        _object_setattr(self, e, x_e)
        if post_init:
            self.__post_init__()
    return __init__


_INITS = (_init0, _init1, _init2, _init3, _init4, _init5)


def record(cls: type) -> type:
    """Make cls a frozen record over its annotated fields (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = [cls.__dict__[name] for name in names if name in cls.__dict__]
    required = len(names) - len(defaults)
    if any(name in cls.__dict__ for name in names[:required]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    if len(names) >= len(_INITS) or "self" in names:
        raise TypeError(f"{cls.__qualname__}: a record has at most {len(_INITS) - 1} fields, "
                        "none named 'self'")
    __init__ = _INITS[len(names)](names, hasattr(cls, "__post_init__"))
    __init__.__code__ = __init__.__code__.replace(co_varnames=("self", *names))
    __init__.__defaults__ = tuple(defaults) or None
    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    methods = {"__init__": __init__, "__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
               "__setattr__": _setattr, "__delattr__": _delattr, "__match_args__": names}
    if clash := methods.keys() & cls.__dict__.keys():
        raise TypeError(f"{cls.__qualname__} defines {', '.join(sorted(clash))} itself")
    for name, value in methods.items():
        setattr(cls, name, value)
    return cls


def as_dict(obj: object) -> dict[str, object]:
    """The fields of record obj as a dict, a field holding a record as
    that record's dict."""
    fields = {name: getattr(obj, name) for name in obj.__match_args__}
    return {name: as_dict(value) if type(value).__setattr__ is _setattr else value
            for name, value in fields.items()}
