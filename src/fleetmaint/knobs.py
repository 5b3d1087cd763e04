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


# each scalar annotation that check enforces: its description, and the value
# as stored, a Python scalar (-0.0 as 0.0, which it equals), or None where the
# value does not hold it; a bool holds only ``bool``
KINDS = {"int": ("an integer", lambda v: int(v) if isinstance(v, Integral) else None),
         "float": ("a finite number",
                   lambda v: float(v) + 0.0 if isinstance(v, Real) and math.isfinite(v) else None),
         "bool": ("true or false", lambda v: v),
         "str": ("a string", lambda v: str(v) if isinstance(v, str) else None)}
# each container annotation that check enforces, by its opening: its closing,
# its description, its test, its (key, item) pairs, and the container built
# from its (key, stored item) pairs
CONTAINERS = {"tuple[": (", ...]", "a list", lambda v: isinstance(v, (list, tuple)), enumerate,
                         lambda pairs: tuple(item for _, item in pairs)),
              "dict[str, ": ("]", "an object with string keys", lambda v: isinstance(v, dict)
                             and all(isinstance(k, str) for k in v), dict.items, dict)}
# each bound's metadata key, with its symbol and its test
BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt),
          "le": ("<=", operator.le), "lt": ("<", operator.lt)}


def _check(name: str, value, kind: str, meta):
    """``value`` as stored for the annotation ``kind``: a Python scalar, a
    float for ``float``, or a container of the annotation's type rebuilt
    from its stored items in order. Raise ValueError naming ``name``, or the
    item of it, where ``value`` does not hold ``kind`` or is outside the
    bounds or choices in ``meta``. A container, non-empty if ``meta`` says
    ``nonempty``, holds items of its item annotation, which the bounds and
    choices apply to."""
    for prefix, (suffix, what, test, items, build) in CONTAINERS.items():
        if kind.startswith(prefix) and kind.endswith(suffix):
            if not test(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")
            if meta.get("nonempty") and not value:
                raise ValueError(f"{name} must not be empty")
            return build((key, _check(f"{name}[{key!r}]", item, kind[len(prefix):-len(suffix)],
                                      meta)) for key, item in items(value))
    if kind not in KINDS:
        return value
    what, stored_form = KINDS[kind]
    try:
        stored = stored_form(value) if isinstance(value, bool) == (kind == "bool") else None
    except OverflowError:  # an integer past a float's range
        stored = None
    if stored is None:
        raise ValueError(f"{name} must be {what}, got {value!r}")
    for key, (symbol, test) in BOUNDS.items():
        if key in meta and not test(stored, meta[key]):
            raise ValueError(f"{name} must be {symbol} {meta[key]}, got {value!r}")
    if "choices" in meta and stored not in meta["choices"]:
        raise ValueError(f"{name} must be one of {', '.join(meta['choices'])}, got {value!r}")
    return stored


def check(obj, where: str = "") -> None:
    """Raise ValueError naming, after ``where``, the first field of the
    dataclass ``obj`` that does not hold its annotation (a ``T | None`` one
    may hold None; the config modules postpone annotations, so they are read
    as written), passes one of its bounds or is not one of its choices. Each
    field is set to its value as stored, so that equal configs save alike."""
    for f in fields(obj):
        value, kind = getattr(obj, f.name), f.type.removesuffix(" | None")
        if value is not None or kind == f.type:
            setattr(obj, f.name, _check(where + f.name, value, kind, f.metadata))
