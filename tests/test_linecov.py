"""tools/linecov.py on a tiny package and its one test, run as a child process."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"

MODULE = '''\
def sign(x):
    if x > 0:
        return "positive"
    return "not positive"


def never_called():
    return 1


class Box:
    size = 3

    def open(self):
        return "open"


def in_a_thread(out):
    out.append("ran")
'''

TEST = '''\
import threading

from pkg.mod import in_a_thread, sign


def test_sign():
    assert sign(1) == "positive"
    out = []
    worker = threading.Thread(target=in_a_thread, args=(out,))
    worker.start()
    worker.join()
    assert out == ["ran"]
'''


def test_linecov_prints_each_unreached_line_then_the_count(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "__init__.py").write_text("", encoding="utf-8")
    (tmp_path / "pkg" / "mod.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "test_mod.py").write_text(TEST, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--package", "pkg", "-q", "-p", "no:cacheprovider",
         "test_mod.py"], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # its last lines: the body of the branch not taken, of a function
    # never called and of a method never called; the thread's function ran
    assert proc.stdout.splitlines()[-4:] == [
        "pkg/mod.py:4", "pkg/mod.py:8", "pkg/mod.py:15", "3 of 12 executable lines unreached"]
