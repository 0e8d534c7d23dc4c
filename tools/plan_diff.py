"""Answer identity of two checkouts' journey planners, on one seeded corpus.

    python3 tools/plan_diff.py --parent DIR [--change DIR] [--queries 50000]

The corpus is ``tests/answer_corpus.py``'s, the one ``TestPinnedAnswers``
pins, taken for as many queries as asked. The corpus and its inputs come from
this checkout's ``tests`` on both sides.

Each side runs in a child process with its checkout's ``src`` first on
``PYTHONPATH`` and prints one SHA-256 per answer: the ``to_doc()`` of every
itinerary, or the ``PlanError`` kind. The tool reports how many answers differ
and the first few differing query indexes. It exits 0 when none differs, 1
when some do, and 2 when a side fails to run. Only the stdlib is imported;
``--change`` defaults to this checkout.
"""

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHOWN = 10  # differing query indexes named in the report


def emit(queries: int) -> None:
    """Print one SHA-256 per answer of the first ``queries`` corpus queries."""
    from answer_corpus import answer, corpus

    for case in itertools.islice(corpus(), queries):
        print(hashlib.sha256(answer(*case)).hexdigest())


def start_side(checkout: str, queries: int) -> tuple:
    """Start one checkout's child; returns (the process, the file it prints to)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.abspath(checkout), "src"), os.path.join(ROOT, "tests")]))
    out = tempfile.TemporaryFile(mode="w+")
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--emit", str(queries)],
                             env=env, stdout=out, stderr=subprocess.PIPE, text=True)
    return child, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="checkout whose answers are the reference")
    parser.add_argument("--change", default=ROOT, help="checkout compared with it")
    parser.add_argument("--queries", type=int, default=50000)
    parser.add_argument("--emit", type=int, help=argparse.SUPPRESS)  # a child's mode
    args = parser.parse_args(argv)
    if args.emit is not None:
        emit(args.emit)
        return 0
    if not args.parent:
        parser.error("--parent is required")
    started = {name: start_side(path, args.queries)
               for name, path in (("parent", args.parent), ("change", args.change))}
    digests, failed = {}, False
    for name, (child, out) in started.items():  # wait for both before judging either
        _, err = child.communicate()
        with out:
            out.seek(0)
            digests[name] = out.read().split()
        if child.returncode != 0 or len(digests[name]) != args.queries:
            print(f"{name} side failed (exit {child.returncode}, "
                  f"{len(digests[name])} answers):\n{err.strip()}", file=sys.stderr)
            failed = True
    if failed:
        return 2
    differ = [i for i, (a, b) in enumerate(zip(digests["parent"], digests["change"])) if a != b]
    print(f"{len(differ)} of {args.queries} answers differ")
    if differ:
        print("first differing query indexes: " + " ".join(map(str, differ[:SHOWN])))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
