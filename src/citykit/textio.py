"""The two text formats citykit reads and writes: JSON lines (one document
per line, keys sorted) and ``key = value`` settings (``#`` starts a comment).
"""

import json
from dataclasses import fields


def read_jsonl(path):
    """Yields the documents of a JSON-lines file one at a time."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_jsonl(path, docs) -> int:
    """One document per line with sorted keys; returns the document count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            n += 1
    return n


def read_settings(text: str, fail):
    """Yields (line number, key, value); a line with no ``=`` raises ``fail(lineno, reason)``."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise fail(lineno, "expected key = value")
        key, _, value = line.partition("=")
        yield lineno, key.strip(), value.strip()


def field_types(cls) -> dict:
    """Field name -> int, float or str for a dataclass's scalar fields."""
    return {f.name: f.type for f in fields(cls) if f.type in (int, float, str)}
