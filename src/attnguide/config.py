"""The `key = value` file format shared by model, guidance and grid files.

One setting per line, `#` starts a comment, blank lines are skipped.  Each
value is typed by the default of the dataclass field it sets: `bool`
(true/1/yes, false/0/no), `int`, `float`, `str`, or a `tuple` of
`tag:int` pairs such as `levels = down:8, mid:4, up:8`.
"""

from __future__ import annotations

from pathlib import Path

from .errors import InputError

_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def read_text(path):
    """The contents of a UTF-8 text file, without a leading byte-order mark; bytes that do
    not decode are an input error."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def key_values(path):
    """Yield (line_no, key, value) for each setting line of a file; a key may appear once."""
    seen = {}
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"line {line_no}: want 'key = value', got {raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in seen:
            raise InputError(f"line {line_no}: {key!r} already set on line {seen[key]}")
        seen[key] = line_no
        yield line_no, key, value


def parse_value(cls, key, text, line_no):
    """Coerce `text` to the type of the default of dataclass `cls`'s field `key`."""
    field = cls.__dataclass_fields__.get(key)
    if field is None:
        raise InputError(f"line {line_no}: unknown key {key!r}")
    kind = type(field.default)
    try:
        if kind is bool:
            return _BOOLS[text.lower()]
        if kind is tuple:
            return tuple((tag.strip(), int(n)) for tag, n in
                         (item.split(":") for item in text.split(",")))
        return kind(text)
    except (KeyError, ValueError):
        wants = "'tag:int, ...'" if kind is tuple else kind.__name__
        raise InputError(f"line {line_no}: {key} wants {wants}, got {text!r}") from None


def read_config(cls, path):
    """Build a `cls` instance from a `key = value` file; unset fields keep defaults."""
    return cls(**{key: parse_value(cls, key, text, line_no)
                  for line_no, key, text in key_values(path)})
