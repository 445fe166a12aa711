"""Frozen value records that are cheap to build.

``record`` is ``dataclass(frozen=True, slots=True)`` with a faster
``__init__``.  A frozen dataclass's own ``__init__`` sets each field
through ``object.__setattr__``, which looks the field's name up on every
call.  The ``__init__`` installed here calls each field slot's member
descriptor ``__set__`` directly, bound once when the class is decorated,
then ``__post_init__`` if the class has one.  The signature, defaults,
``repr``, ``==`` and ``hash`` are the dataclass's own, and assigning or
deleting any attribute raises ``FrozenInstanceError`` as on a frozen
dataclass without slots; instances have no ``__dict__``.
"""

from __future__ import annotations

import dataclasses


def record(cls: type) -> type:
    """Decorate a class whose fields are all plain positional-or-keyword
    parameters; a field with ``default_factory``, ``init=False`` or
    ``kw_only`` raises TypeError."""
    cls = dataclasses.dataclass(frozen=True, slots=True)(cls)
    fields = dataclasses.fields(cls)
    namespace: dict[str, object] = {}
    params, body = ["self"], []
    for f in fields:
        if f.default_factory is not dataclasses.MISSING or not f.init or f.kw_only:
            raise TypeError(
                f"{cls.__name__}.{f.name}: record fields take no default_factory, "
                "init=False or kw_only"
            )
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is dataclasses.MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body or ["pass"])
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    init.__annotations__ = cls.__init__.__annotations__
    cls.__init__ = init

    # The frozen dataclass's own guards name the class as it was before
    # slots were added, so a name that is not a field fails with a
    # TypeError from super() instead of FrozenInstanceError.
    names = frozenset(f.name for f in fields)

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (__setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
