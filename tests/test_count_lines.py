"""``tools/count_lines.py`` counts every line and the code lines apart from
docstrings, comments and blanks."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

FIXTURE = '''"""A module docstring

with a blank line inside it.
"""

# a comment line
X = 1  # an inline comment


def f(a):
    """One line."""
    text = """a string that is not a docstring

    spans three lines"""
    return (a,
            "a string in a call")


class C:

    """A class docstring

    after a blank line."""
    y = 2
'''


def test_the_counter_counts_code_apart_from_docstrings_comments_and_blanks(tmp_path):
    # code: X = 1, def f, text = ... (3 lines), return (2 lines), class C, y = 2
    assert count_lines.code_lines(FIXTURE) == {7, 10, 12, 13, 14, 15, 16, 19, 24}
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert count_lines.count([path, path]) == (48, 18)


def test_the_counter_prints_both_numbers_of_the_package(capsys):
    assert count_lines.main([]) == 0
    total, code = count_lines.count(sorted((ROOT / "src" / "renyiquant").glob("*.py")))
    assert capsys.readouterr().out == f"{total} lines, {code} code lines\n"
    assert 0 < code < total
