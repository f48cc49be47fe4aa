"""The file rules: the one writer ``output_file``; the one JSON rule, ``encode_json``
and ``decode_json``, of JSONL files and checkpoint metadata; the JSONL and CSV readers
and writers."""

from __future__ import annotations

import contextlib
import csv
import json
import os
import stat
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")


def encode_json(value: Any) -> str:
    """``value`` as JSON text, keys sorted and non-ASCII text as characters;
    a NaN or infinite number, which JSON does not have, is a ValueError."""
    return json.dumps(value, sort_keys=True, ensure_ascii=False, allow_nan=False)


def _not_json(name: str):
    """``json.loads``'s hook for NaN, Infinity and -Infinity, which JSON does
    not have and ``encode_json`` never writes."""
    raise ValueError(f"{name} is not a JSON number")


def decode_json(text: str) -> Any:
    """The value of JSON text; NaN, Infinity and -Infinity are a ValueError."""
    return json.loads(text, parse_constant=_not_json)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, record) for every non-blank line of a JSONL file. A
    line that is not JSON, such as one holding NaN, fails naming the file
    and line."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = decode_json(line)
            except ValueError as e:  # a JSONDecodeError, or a non-finite number
                raise ValueError(f"{path}:{lineno}: malformed JSON ({getattr(e, 'msg', e)})") from e
            yield lineno, rec


def parse_jsonl(path: str | Path, parse: Callable[[Any], T]) -> list[T]:
    """``parse`` of every record of a JSONL file, the one record reader of
    corpora, predictions and portraits. A field that ``parse`` finds missing
    (KeyError), a value it rejects (ValueError) or an item whose ``doc_id``
    an earlier line already has fails naming the file and line."""
    items, first_line = [], {}
    for lineno, rec in read_jsonl(path):
        try:
            item = parse(rec)
        except KeyError as e:
            raise ValueError(f"{path}:{lineno}: missing field {e.args[0]!r}") from None
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
        if item.doc_id in first_line:
            raise ValueError(f"{path}:{lineno}: document id {item.doc_id!r} "
                             f"already on line {first_line[item.doc_id]}")
        first_line[item.doc_id] = lineno
        items.append(item)
    return items


@contextlib.contextmanager
def output_file(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """The one way the program writes a file: a handle whose bytes become
    ``path``, text opened as UTF-8 with no newline translation.

    ``path`` is followed through symlinks. A regular or missing target gets
    a new sibling file, named after this process and created exclusively,
    that is fsynced and renamed onto it when the block ends; so the output
    replaces the whole target or, on any exception, is removed and leaves
    the target's bytes as they were. An existing target that is not a
    regular file, such as a pipe, a terminal or ``/dev/null``, is written in
    place: renaming over it would swap the device or pipe for a file."""
    kw = {} if binary else {"encoding": "utf-8", "newline": ""}
    b = "b" if binary else ""
    try:
        in_place = not stat.S_ISREG(os.stat(path).st_mode)
    except FileNotFoundError:
        in_place = False
    if in_place:
        with open(path, "w" + b, **kw) as fh:
            yield fh
        return
    target = Path(os.path.realpath(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:  # outside the cleanup below: a name this writer did not create is not removed
        fh = open(tmp, "x" + b, **kw)
    except FileNotFoundError as e:
        raise FileNotFoundError(e.errno, e.strerror, str(path)) from None
    try:
        with fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One ``encode_json`` object per line: the encoding of every JSONL file
    the program writes. Each record streams through ``output_file``, so a
    record JSON cannot hold, such as one with a NaN or infinite number,
    raises ValueError naming the path and the 1-based record number, and
    leaves a regular file at the path as it was."""
    with output_file(path) as fh:
        for i, rec in enumerate(records, 1):
            try:
                line = encode_json(rec)
            except (TypeError, ValueError) as e:
                raise ValueError(f"{path}: record {i}: {e}") from e
            fh.write(line + "\n")


def write_csv(path: str | Path, rows: Iterable[Sequence]) -> None:
    """Rows as CSV lines ending in \\r\\n, written through ``output_file``:
    a row that fails to format leaves a regular file at the path as it was."""
    with output_file(path) as fh:
        csv.writer(fh).writerows(rows)


_KINDS = {str: ("a string", "strings"), bool: ("true or false", "booleans"),
          int: ("an integer", "integers"), float: ("a number", "numbers"),
          list: ("a list", "lists"), dict: ("an object", "objects")}
_REQUIRED = object()


def _is(v: Any, kind: type) -> bool:
    """A JSON value of ``kind``: ``float`` admits integers, and only
    ``bool`` admits true and false."""
    kinds = (int, float) if kind is float else kind
    return isinstance(v, bool) == (kind is bool) and isinstance(v, kinds)


def typed(rec: Any, name: str, kind: type, items: type | None = None,
          default: Any = _REQUIRED) -> Any:
    """Field ``name`` of a JSON record, checked to be a ``kind`` (a list of
    ``items``, when given): a ValueError names the field and the type it
    needs, and ``parse_jsonl`` adds the file and line. A missing field is a
    KeyError unless a ``default`` is given."""
    if not isinstance(rec, dict):
        raise ValueError(f"expected a JSON object with field {name!r}, not {type(rec).__name__}")
    if default is not _REQUIRED and name not in rec:
        return default
    v = rec[name]
    if not _is(v, kind) or items is not None and not all(_is(x, items) for x in v):
        raise ValueError(f"{name} must be " + (f"a list of {_KINDS[items][1]}" if items
                                              else _KINDS[kind][0]))
    return v
