"""Shared exception types, the size-guard policy, the JSON readers that
turn malformed input into VerificationError, and the one JSON writer."""

import json
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from itertools import chain

DEFAULT_CELL_GUARD = 16_000_000
_ZERO_DIGITS = bytes.maketrans(b"123456789", b"000000000")


class GuardExceeded(Exception):
    """A requested computation would exceed the configured size guard."""


def _check_guard(what: str, rows: int, cols: int, guard: int):
    """GuardExceeded naming what would be built when rows x cols passes
    guard cells."""
    if rows * cols > guard:
        raise GuardExceeded(
            f"{what}: {rows} x {cols} = {rows * cols} cells exceeds the "
            f"guard of {guard}"
        )


class RowFactorError(ValueError):
    """A row of a target matrix is not in the row space of its source;
    `member` is the failing pair's index in a stack of pairs."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


class VerificationError(ValueError):
    """An input object fails its own verification (e.g. not a Kakeya set)."""


def read_json(path):
    """The JSON value stored at path.

    Raises VerificationError when the file is not JSON; an unreadable path
    raises OSError as open() does.
    """
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise VerificationError(f"{path} is not JSON: {exc}") from None


def _json_value(v):
    """v ready for json.dumps: integers of 53 bits or more and Fractions
    become strings, dicts, lists and tuples are converted element-wise, and
    anything else passes through unchanged."""
    if isinstance(v, int) and abs(v) >= 2**53:
        return str(v)
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_value(x) for x in v]
    return v


def _dumps(v) -> str:
    """_json_value(v) as one line of JSON with sorted keys, by CPython's C
    encoder (no indent).  v is converted whole only where its first dump,
    Fractions converted on the way, shows 16 digits in a row: an integer
    that may have 53 bits."""
    text = json.dumps(v, sort_keys=True, default=_json_value)
    if b"0" * 16 in text.encode().translate(_ZERO_DIGITS):  # |v| >= 2^53
        text = json.dumps(_json_value(v), sort_keys=True)
    return text


def write_json(data, path=None) -> None:
    """_json_value(data) as JSON with sorted keys and a final newline,
    written to path, or to stdout when path is None.  A non-empty top-level
    object or list is written one entry per line, each indented by one space
    and dumped whole by `_dumps`, between lines holding its brackets; any
    other value is one `_dumps` line."""
    if isinstance(data, dict) and data:
        # each entry as json writes it inside an object, its key converted
        body = ",\n ".join(_dumps({k: data[k]})[1:-1] for k in sorted(data))
        text = "{\n " + body + "\n}"
    elif isinstance(data, (list, tuple)) and data:
        text = "[\n " + ",\n ".join(map(_dumps, data)) + "\n]"
    else:
        text = _dumps(data)
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        fh.write(text + "\n")


def json_ints(values, length: int, what: str) -> tuple[int, ...]:
    """values, a JSON list of length integers, as a tuple.

    Raises ValueError naming what otherwise; floats, strings and booleans
    are refused rather than converted.
    """
    if not (isinstance(values, list) and len(values) == length
            and all(type(c) is int for c in values)):
        raise ValueError(
            f"{what} {values!r} is not a list of {length} integers"
        )
    return tuple(values)


def _int_lists(rows: list, length: int) -> bool:
    """Whether json_ints takes every one of rows, in three whole-list passes."""
    return (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {length}
            and set(map(type, chain.from_iterable(rows))) <= {int})


@contextmanager
def malformed_input(what: str):
    """Turn a missing key, a wrong type or a bad value met while reading
    a JSON object into VerificationError("malformed <what>: ...")."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        problem = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise VerificationError(f"malformed {what}: {problem}") from None
