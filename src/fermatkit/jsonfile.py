"""The one reader of every JSON input file: curves, families, packets,
sieve constraints and the reference invariants."""

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
