"""Lines of a package that no test reaches.

    python3 tools/linecov.py [--package DIR] [PYTEST_ARG ...]

Runs pytest in this process, with the given arguments, under ``sys.settrace``
and ``threading.settrace``, so the threads the tests start are traced too. A
line is executable when the compiled module's code objects (``co_lines()``)
give it an instruction. Each executable line of every module under
``--package`` (``src/citykit`` by default) that no traced frame ran is printed
as ``path:line``, then the count. A line that runs only in a child process
counts as unreached. The exit status is pytest's.
"""

import argparse
import os
import sys
import threading
import types

import pytest

DEFAULT_PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "src", "citykit")


def package_modules(package: str) -> list[str]:
    """The absolute path of every ``.py`` file under ``package``, sorted."""
    return sorted(os.path.join(root, name) for root, _, names in os.walk(package)
                  for name in names if name.endswith(".py"))


def executable_lines(path: str) -> set[int]:
    """The lines that the code objects compiled from ``path`` have instructions on."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_run(package: str, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """(pytest's exit status, the lines run per module path) of one traced run."""
    package = os.path.abspath(package)
    hits = {path: set() for path in package_modules(package)}

    def local(frame, event, arg):
        hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None  # not traced line by line
        lines.add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.dirname(package))  # so its modules load from these paths
    sys.settrace(on_call)
    threading.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        threading.settrace(None)
        sys.settrace(None)
    return int(status), hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--package", default=DEFAULT_PACKAGE,
                        help="package directory whose lines are counted")
    args, pytest_args = parser.parse_known_args(argv)  # the rest goes to pytest
    status, hits = traced_run(args.package, pytest_args)
    unreached = total = 0
    for path, ran in hits.items():
        lines = executable_lines(path)
        total += len(lines)
        for line in sorted(lines - ran):
            print(f"{os.path.relpath(path)}:{line}")
            unreached += 1
    print(f"{unreached} of {total} executable lines unreached")
    return status


if __name__ == "__main__":
    sys.exit(main())
