"""tools/plan_diff.py on a short corpus: a checkout against itself, and against
a copy whose walking pace differs."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "plan_diff.py"


def run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True,
                          timeout=120)


def test_a_checkout_gives_its_own_answers():
    proc = run("--parent", str(ROOT), "--queries", "60")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 of 60 answers differ"]


def test_a_changed_planner_is_named_by_query(tmp_path):
    shutil.copytree(ROOT / "src" / "citykit", tmp_path / "src" / "citykit")
    routing = tmp_path / "src" / "citykit" / "routing.py"
    text = routing.read_text()
    assert "WALK_SPEED = 1.25" in text
    routing.write_text(text.replace("WALK_SPEED = 1.25", "WALK_SPEED = 1.0"))
    proc = run("--parent", str(ROOT), "--change", str(tmp_path), "--queries", "60")
    assert proc.returncode == 1, proc.stderr
    count, indexes = proc.stdout.splitlines()
    assert count.endswith(" of 60 answers differ") and not count.startswith("0 ")
    assert indexes.startswith("first differing query indexes: ")
