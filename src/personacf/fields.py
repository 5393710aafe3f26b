"""One value contract for every config dataclass.

Each field states its legal values in its ``dataclasses.field`` metadata:
``min`` and ``max`` (inclusive), ``above`` and ``below`` (exclusive) and
``choices``. A dataclass with ``__post_init__ = check_fields`` is checked
whenever it is built, so a YAML file and a library caller meet the same
checks and messages.
"""

from __future__ import annotations

import math
import operator
from dataclasses import fields
from typing import get_args, get_type_hints

_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,)}
# metadata key: (the rule as an error message states it, its test)
LIMITS = {"min": (">=", operator.ge), "max": ("<=", operator.le), "above": (">", operator.gt),
          "below": ("<", operator.lt), "choices": ("one of", lambda v, choices: v in choices)}


def check_fields(obj) -> None:
    """Raise TypeError for a value that does not fit its field's declared
    int, float, bool or str type (optionally ``| None``), and ValueError
    for a non-finite float or a value outside the field's limits. A float
    field accepts an int, only a bool field accepts a bool, and fields of
    other types go unchecked."""
    hints = get_type_hints(type(obj))
    for f in fields(obj):
        hint, value = hints[f.name], getattr(obj, f.name)
        if type(None) in get_args(hint):  # ``X | None``, where None passes
            hint = None if value is None else get_args(hint)[0]
        if hint not in _TYPES:
            continue
        if not isinstance(value, _TYPES[hint]) or isinstance(value, bool) != (hint is bool):
            kind = f"{type(value).__name__} {value!r}"
            raise TypeError(f"{f.name} must be {hint.__name__}, got {kind}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
        for key, limit in f.metadata.items():
            rule, holds = LIMITS[key]
            if not holds(value, limit):
                raise ValueError(f"{f.name} must be {rule} {limit!r}, got {value!r}")
