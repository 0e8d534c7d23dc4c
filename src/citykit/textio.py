"""The text formats citykit reads and writes: JSON, JSON lines (one document
per line, keys sorted) and ``key = value`` settings (``#`` starts a comment).
"""

import json
from dataclasses import fields

from citykit.ngsi import KindError


def read_json(path, kind: str):
    """The document in a JSON file; ``KindError(kind, ...)`` when it does not decode."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise KindError(kind, f"{path}: {exc}") from exc


def read_jsonl(path):
    """Yields a JSON-lines file's documents one at a time; ``KindError("invalid-json", ...)``
    names a line that does not decode."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                doc = json.loads(line)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise KindError("invalid-json", f"{path} line {lineno}: {exc}") from exc
            yield doc


def write_jsonl(path, docs) -> int:
    """One document per line with sorted keys; returns the document count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            n += 1
    return n


def read_settings(text: str, error, apply) -> None:
    """Calls ``apply(key, value)`` for each line in order; a line with no ``=``,
    or one ``apply`` refuses with ``ValueError``, raises ``error("line N: reason")``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        try:
            apply(key.strip(), value.strip())
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from exc


def field_types(cls) -> dict:
    """Field name -> int, float or str for a dataclass's scalar fields."""
    return {f.name: f.type for f in fields(cls) if f.type in (int, float, str)}
