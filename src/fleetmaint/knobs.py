"""Config fields declared once: a config dataclass field's annotation is its
type, a scalar or a container of scalars, and its ``dataclasses.field``
metadata holds its bounds (``ge``, ``gt``, ``le``, ``lt``) or ``choices``,
which a container's items take, ``nonempty`` for a container that needs an
item, its command-line ``flag`` where that is not the field's name, and its
``help``. :func:`check` enforces them, and the command line makes each
subcommand's flags from the same fields."""

import math
import operator
from dataclasses import fields
from numbers import Integral, Real


def is_integer(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """True for a finite real number that is not a bool; any integer is finite."""
    return isinstance(value, Real) and not isinstance(value, bool) and (
        isinstance(value, Integral) or math.isfinite(value))


# each scalar annotation that check enforces, with its description and test
KINDS = {"int": ("an integer", is_integer), "float": ("a finite number", is_finite),
         "bool": ("true or false", lambda v: isinstance(v, bool)),
         "str": ("a string", lambda v: isinstance(v, str))}
# each container annotation that check enforces, by its opening: its closing,
# its description, its test and its (key, item) pairs
CONTAINERS = {"tuple[": (", ...]", "a list", lambda v: isinstance(v, (list, tuple)), enumerate),
              "dict[str, ": ("]", "an object with string keys", lambda v: isinstance(v, dict)
                             and all(isinstance(k, str) for k in v), dict.items)}
# each bound's metadata key, with its symbol and its test
BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
          "le": ("<=", operator.le), "lt": ("<", operator.lt)}


def _check(name: str, value, kind: str, meta) -> None:
    """Raise ValueError naming ``name``, or the item of it, where ``value``
    does not hold the annotation ``kind`` or is outside the bounds or choices
    in ``meta``. A container, non-empty if ``meta`` says ``nonempty``, holds
    items of its item annotation, which the bounds and choices apply to."""
    for prefix, (suffix, what, test, items) in CONTAINERS.items():
        if kind.startswith(prefix) and kind.endswith(suffix):
            if not test(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            if meta.get("nonempty") and not value:
                raise ValueError(f"{name} must not be empty")
            for key, item in items(value):
                _check(f"{name}[{key!r}]", item, kind[len(prefix):-len(suffix)], meta)
            return
    if kind not in KINDS:
        return
    if not KINDS[kind][1](value):
        raise ValueError(f"{name} must be {KINDS[kind][0]}, got {value!r}")
    for key, (symbol, test) in BOUNDS.items():
        if key in meta and not test(value, meta[key]):
            raise ValueError(f"{name} must be {symbol} {meta[key]}, got {value!r}")
    if "choices" in meta and value not in meta["choices"]:
        raise ValueError(f"{name} must be one of {', '.join(meta['choices'])}, got {value!r}")


def check(obj, where: str = "") -> None:
    """Raise ValueError naming, after ``where``, the first field of the
    dataclass ``obj`` that does not hold its annotation (a ``T | None`` one
    may hold None; the config modules postpone annotations, so they are read
    as written), passes one of its bounds or is not one of its choices. A
    numpy scalar becomes the Python one, so that the config saves as JSON."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        _check(where + f.name, value, kind, f.metadata)
        if kind in KINDS and hasattr(value, "item"):
            setattr(obj, f.name, value.item())
