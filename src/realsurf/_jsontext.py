"""``json.dumps(obj, indent=2)`` at a fraction of its cost, for the
certificate encoder and the CLI's JSON output.  Only the standard
library's ``json`` is imported here, so a command that prints JSON need
not load the certificate engine.
"""

import json

__all__ = ["dumps_indented"]

_encode_str = json.encoder.encode_basestring_ascii  # the standard library's C escaper
_INFINITY = float("inf")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


# leaf type -> its JSON spelling as json.dumps writes it
_JSON_LEAVES = {
    str: _encode_str, int: int.__repr__, float: _json_float,
    bool: lambda b: "true" if b else "false", type(None): lambda _: "null",
}


def dumps_indented(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, with tuples as lists.
    The standard encoder indents in pure Python; here containers are
    joined strings and leaves take the C routines.  ``pad`` is the
    newline and indentation that close ``obj``."""
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_key(k) + ": " + dumps_indented(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        leaf = _JSON_LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(leaf, obj) if leaf else [dumps_indented(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj)  # a subclass of a leaf type; anything else raises TypeError


def _json_key(key) -> str:
    if isinstance(key, str):
        return _encode_str(key)
    if isinstance(key, (int, float)) or key is None:  # bool is an int
        return _encode_str(json.dumps(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
