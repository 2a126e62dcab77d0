"""Deterministic JSON rendering with 17-significant-digit floats.

Reports round-trip exactly (17 digits pins every double) and identical
inputs render byte-identically, which the CLI's determinism contract
relies on.  Only the primitive shapes reports actually use are handled.
"""

from __future__ import annotations

import math

# The C function json.dumps quotes a str with, so strings render as
# json.dumps renders them without importing json.
from _json import encode_basestring_ascii as _quote

_BOOLS = ("false", "true")


def _render(obj, level: int) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return _BOOLS[obj]
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj} is not representable in a report")
        return format(obj, ".17g")
    if isinstance(obj, str):
        return _quote(obj)
    if not isinstance(obj, (dict, list, tuple)):
        raise TypeError(f"cannot render {type(obj).__name__} in a report")
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    pad = "  " * (level + 1)
    close_pad = "  " * level
    sep = ",\n" + pad
    # Each container is one join of its parts, so a report-sized value is
    # copied once, into its parent, and not again by + or an f-string.
    if isinstance(obj, dict):
        # A str or a finite float value, by exact type, is rendered here:
        # the text the recursive call gives, without the call.  Any other
        # value recurses, a subclass or a non-finite float included.
        parts = []
        for k, v in obj.items():
            kind = type(v)
            if kind is str:
                text = _quote(v)
            elif kind is float and math.isfinite(v):
                text = "%.17g" % v
            else:
                text = _render(v, level + 1)
            parts += (sep, _quote(str(k)), ": ", text)
        parts[0] = "{\n" + pad
        parts += ("\n", close_pad, "}")
        return "".join(parts)
    # A sequence of finite floats only, or of bools only (a trace's
    # iterates, step logs and ball flags), is rendered in one pass: the
    # same text as one recursive call per item, without the calls ("%.17g"
    # formats a float as format(x, ".17g") does).  Any other sequence
    # recurses, which also raises for a non-finite float.
    kinds = set(map(type, obj))
    if kinds == {float} and all(map(math.isfinite, obj)):
        items = sep.join(["%.17g"] * len(obj)) % tuple(obj)
    elif kinds == {bool}:
        items = sep.join([_BOOLS[v] for v in obj])
    else:
        items = sep.join([_render(v, level + 1) for v in obj])
    return "".join(("[\n", pad, items, "\n", close_pad, "]"))


def dumps(doc) -> str:
    return _render(doc, 0)
