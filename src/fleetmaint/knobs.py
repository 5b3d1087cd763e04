"""Config fields declared once: a config dataclass field's annotation is its
type, and its ``dataclasses.field`` metadata holds its bounds (``ge``,
``gt``, ``le``, ``lt``) or ``choices``, its command-line ``flag`` where that
is not the field's name, and its ``help``. :func:`check` enforces them, and
the command line makes each subcommand's flags from the same fields."""

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
# each bound's metadata key, with its symbol and its test
BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
          "le": ("<=", operator.le), "lt": ("<", operator.lt)}


def check(obj) -> None:
    """Raise ValueError naming the first field of the dataclass ``obj`` that
    does not hold its annotated scalar type (a ``T | None`` one may hold
    None; the config modules postpone annotations, so they are read as
    written), passes one of its bounds or is not one of its choices. A numpy
    scalar becomes the Python one, so that the config saves as JSON."""
    for f in fields(obj):
        value, kind, meta = getattr(obj, f.name), f.type.removesuffix(" | None"), f.metadata
        if kind not in KINDS or (value is None and kind != f.type):
            continue
        if not KINDS[kind][1](value):
            raise ValueError(f"{f.name} must be {KINDS[kind][0]}, got {value!r}")
        for key, (symbol, test) in BOUNDS.items():
            if key in meta and not test(value, meta[key]):
                raise ValueError(f"{f.name} must be {symbol} {meta[key]}, got {value!r}")
        if "choices" in meta and value not in meta["choices"]:
            raise ValueError(f"{f.name} must be one of {', '.join(meta['choices'])}, "
                             f"got {value!r}")
        if hasattr(value, "item"):
            setattr(obj, f.name, value.item())
