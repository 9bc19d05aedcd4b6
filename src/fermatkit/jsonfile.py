"""The one reader of every JSON input file: curves, families, packets,
sieve constraints and the reference invariants, with the shape checks
their loaders share. Each check takes the loader's error class and
raises it as `<pos>: expected <what>, got <json value>`."""

from __future__ import annotations

import json


def read_json(path, parse, error=ValueError):
    """parse(the JSON value in the file at path), every error named by the
    path. Bytes that are not UTF-8 and text that is not JSON raise `error`;
    an `error` that parse raises is raised again as its own class (a
    subclass such as ExternalDataSlotError stays itself), its message
    prefixed by the path. An OSError passes unchanged; it names the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text (byte {e.start})") from None
    except json.JSONDecodeError as e:
        raise error(f"{path}: invalid JSON at line {e.lineno} column {e.colno}") from None
    except (ValueError, RecursionError) as e:  # an overlong integer, deep nesting
        raise error(f"{path}: invalid JSON: {e}") from None
    try:
        return parse(data)
    except error as e:
        raise type(e)(f"{path}: {e}") from None


def fail(error, pos: str, what: str, value):
    """The error `<pos>: expected <what>, got <value as JSON>`, the value
    cut to 60 characters."""
    try:
        shown = json.dumps(value, default=repr)
    except RecursionError:  # nesting json.loads allowed, a few frames higher up
        shown = "a deeply nested value"
    if len(shown) > 60:
        shown = shown[:57] + "..."
    return error(f"{pos}: expected {what}, got {shown}")


def fields(value, pos: str, error, required=(), optional=None) -> list:
    """The values of an object at its required keys, then at its optional
    keys (a dict of defaults), in order; other keys are ignored."""
    if not isinstance(value, dict):
        raise fail(error, pos, "an object", value)
    for key in required:
        if key not in value:
            raise fail(error, pos, f"an object with the key {json.dumps(key)}", value)
    values = [value[k] for k in required]
    if optional is not None:
        values += [value.get(k, d) for k, d in optional.items()]
    return values


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def integer(value, pos: str, error, lo=None) -> int:
    """value, an int and not a bool, at least lo when lo is given."""
    if not _is_int(value) or (lo is not None and value < lo):
        raise fail(error, pos, "an integer" if lo is None else f"an integer >= {lo}", value)
    return value


def int_lists(value, pos: str, error, depth: int = 1, width=None) -> list:
    """value, `depth` levels of lists with ints (not bools) at the bottom;
    each innermost list holds at most `width` of them when width is given."""
    if not isinstance(value, list) or (depth == 1 and width is not None and len(value) > width):
        what = "a list of " + "lists of " * (depth - 1)
        if width is not None:
            what += f"at most {width} "
        raise fail(error, pos, what + "integers", value)
    for i, v in enumerate(value):
        if depth > 1:
            int_lists(v, f"{pos}[{i}]", error, depth - 1, width)
        elif not _is_int(v):
            raise fail(error, f"{pos}[{i}]", "an integer", v)
    return value


def one_of(value, pos: str, error, known):
    """value, one of the strings in `known`: an order label, a curve
    model, a constraint mode or a family coefficient name."""
    if not isinstance(value, str) or value not in known:
        raise fail(error, pos, f"one of {json.dumps(sorted(known))}", value)
    return value


def string(value, pos: str, error) -> str:
    if not isinstance(value, str):
        raise fail(error, pos, "a string", value)
    return value


def array(value, pos: str, error) -> list:
    if not isinstance(value, list):
        raise fail(error, pos, "a list", value)
    return value
