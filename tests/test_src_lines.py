"""The line counter of ``tests/src_lines.py``."""

import subprocess
import sys
from pathlib import Path

from src_lines import SRC, count

SAMPLE = '''"""A module docstring
over two lines."""

# a comment
import os  # a comment after code


def f():
    """One line."""
    text = """a string
    that is code"""
    "a string statement"
    return (text,
            os)
'''


def test_the_counter_skips_blank_comment_and_docstring_lines():
    # code: import, def, the two lines of text, return and its next line
    assert count(SAMPLE) == (14, 6)


def test_the_script_prints_every_module_and_a_total_that_wc_agrees_with():
    script = Path(__file__).with_name("src_lines.py")
    out = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    modules = sorted(SRC.glob("*.py"))
    assert [r[0] for r in rows] == [p.name for p in modules] + ["total"]
    assert int(rows[-1][1]) == sum(p.read_text().count("\n") for p in modules)
    assert sum(int(r[2]) for r in rows[:-1]) == int(rows[-1][2]) > 0
