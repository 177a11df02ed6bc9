"""Frozen record classes, defined without generating code.

``record`` gives a class what ``dataclasses.dataclass(frozen=True)``
gives it, from the same annotations:

- ``__init__`` over the annotated fields in order, positional or
  keyword, with class attributes as defaults; it ends in
  ``self.__post_init__()`` when the class has one, looked up on each
  call;
- ``__eq__`` and ``__hash__`` on the tuple of field values, with
  ``NotImplemented`` for an instance of another class;
- the repr ``Name(field=value, ...)`` and ``__match_args__``;
- assignment and deletion raising ``FrozenRecordError``.

Every method is a plain function or closure: no source is generated,
compiled or inspected, so a record costs next to nothing at import.
``as_dict`` is ``dataclasses.asdict`` for records whose fields hold
records, but no lists or tuples of them.
"""

from __future__ import annotations

from typing import Any, TypeVar

T = TypeVar("T")
_object_setattr = object.__setattr__


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def _values(self: Any) -> tuple:
    return tuple([getattr(self, name) for name in self.__match_args__])


def _eq(self: Any, other: object) -> Any:
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self: Any) -> int:
    return hash(_values(self))


def _repr(self: Any) -> str:
    fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
    return f"{self.__class__.__qualname__}({fields})"


def _setattr(self: Any, name: str, value: object) -> None:
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls: type[T]) -> type[T]:
    """Make cls a frozen record over its annotated fields (see the module docstring)."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    required = len(names) - len(defaults)
    if any(name in defaults for name in names[:required]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows one with a default")
    post_init = hasattr(cls, "__post_init__")

    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(names):
            args = _bind(__init__.__qualname__, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _object_setattr(self, name, value)
        if post_init:
            self.__post_init__()

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    methods = {"__init__": __init__, "__eq__": _eq, "__hash__": _hash, "__repr__": _repr,
               "__setattr__": _setattr, "__delattr__": _delattr, "__match_args__": names}
    if clash := methods.keys() & cls.__dict__.keys():
        raise TypeError(f"{cls.__qualname__} defines {', '.join(sorted(clash))} itself")
    for name, value in methods.items():
        setattr(cls, name, value)
    return cls


def _bind(where: str, names: tuple[str, ...], defaults: dict[str, Any],
          args: tuple, kwargs: dict[str, Any]) -> list:
    """The field values of a call, in field order, or the TypeError a
    Python function with these parameters would raise."""
    if len(args) > len(names):
        raise TypeError(f"{where}() takes at most {len(names)} arguments, got {len(args)}")
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{where}() got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{where}() got multiple values for argument {name!r}")
        given[name] = value
    if missing := [name for name in names if name not in given and name not in defaults]:
        raise TypeError(f"{where}() missing required arguments: {', '.join(map(repr, missing))}")
    return [given[name] if name in given else defaults[name] for name in names]


def as_dict(obj: Any) -> dict[str, Any]:
    """The fields of record obj as a dict, a field holding a record as
    that record's dict."""
    fields = {name: getattr(obj, name) for name in obj.__match_args__}
    return {name: as_dict(value) if type(value).__setattr__ is _setattr else value
            for name, value in fields.items()}
