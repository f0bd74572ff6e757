"""scripts/code_lines.py counts the lines of a file that are not blank, not a
comment and not part of a docstring, file by file and in total."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "code_lines.py"

SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line


class C:
    """One line."""

    # a comment line
    def f(self):
        """A method docstring

        with a blank line inside."""
        s = """a string that is
not a docstring"""
        return s
'''


def test_a_sample_counts_its_code_lines_only(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "empty.py").write_text("")
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # import, class, def, the two lines of the string statement, return
    assert proc.stdout.splitlines() == ["pkg/empty.py 0", "sample.py 6", "total 6"]


def test_the_engine_count_is_the_sum_of_its_files():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    files = [line.rsplit(" ", 1) for line in lines[:-1]]
    assert {name for name, _ in files} >= {"algebra.py", "liftcheck.py", "modules.py"}
    assert lines[-1] == f"total {sum(int(n) for _, n in files)}"
