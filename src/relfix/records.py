"""``record``: the class decorator that builds relfix's result and model classes.

The fields are the class's annotated names, in order, and a class attribute
is a field's default.  Two markers stand in for a plain default:

    @record
    class Report:
        ok: bool
        witnesses: list = fresh(list)   # a new list for each instance
        ledger: list = IN_MEMORY        # required, and left out of the report

``record`` writes ``__init__`` with the fields as parameters, then runs
``__post_init__`` if the class has one; ``__eq__`` compares the tuples of the
fields of two instances of one class; ``repr`` reads
``QualName(field=value!r, ...)``.  With ``frozen=True`` assignment raises
``AttributeError`` and the hash is that of the tuple of the fields; otherwise
instances are unhashable.  Instance state lives in ``__dict__``, in field
order.  The class gains ``_fields``, ``_report_fields`` (the fields not
marked IN_MEMORY, which ``report._plain`` encodes) and ``_replace(**changes)``,
a new instance through ``__init__``.  Like ``namedtuple``'s ``__new__``,
``__init__`` is compiled from source once per class, so a construction costs
no more than a hand-written one; the other methods are shared.
"""

IN_MEMORY = object()
_REQUIRED = object()


class fresh:
    """A field default built anew for each instance by calling ``factory()``."""

    __slots__ = ("factory",)

    def __init__(self, factory):
        self.factory = factory


def _astuple(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _astuple(self) == _astuple(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_astuple(self))


def _repr(self) -> str:
    items = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({items})"


def _replace(self, **changes):
    return self.__class__(**{**{name: getattr(self, name) for name in self._fields}, **changes})


def _frozen(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a frozen record")


def record(cls=None, *, frozen: bool = False):
    """Build ``cls`` as a record; ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls, frozen: bool):
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    scope, params, body, report = {"_setattr": object.__setattr__}, [], [], []
    for name in fields:
        value, default = name, cls.__dict__.get(name, _REQUIRED)
        if default is IN_MEMORY:
            delattr(cls, name)
            default = _REQUIRED
        else:
            report.append(name)
        if default is _REQUIRED:
            if params and "=" in params[-1]:
                raise TypeError(f"{cls.__name__}: field {name!r} without a default follows one with")
            params.append(name)
        else:
            scope[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
            if isinstance(default, fresh):
                delattr(cls, name)
                scope[f"_new_{name}"] = default.factory
                value = f"_new_{name}() if {name} is _dflt_{name} else {name}"
        body.append(f"_setattr(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n {'; '.join(body) or 'pass'}\n", scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls.__eq__, cls.__repr__ = scope["__init__"], _eq, _repr
    cls.__hash__ = _hash if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    cls._fields, cls._report_fields, cls._replace = fields, tuple(report), _replace
    return cls
