"""``scripts/code_lines.py`` counts code lines, not docstrings, comments or blanks."""

import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a comment after code counts


class Box:
    """Class docstring."""

    # a comment line
    size = 1


def area(a,
         b):
    """Function
    docstring."""
    text = """a string
    that is not a docstring"""
    return (a * b
            + len(text))
'''


def test_code_lines_skips_docstrings_comments_and_blanks():
    code_lines = runpy.run_path(str(SCRIPT))["code_lines"]
    # import, class, size, def (2 lines), text (2 lines), return (2 lines)
    assert code_lines(SOURCE) == 9
    assert code_lines("") == 0


def test_code_lines_script_prints_each_module_and_the_total(capsys):
    main = runpy.run_path(str(SCRIPT))["main"]
    assert main([str(SCRIPT)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == ["code_lines.py", "total"]
    assert lines[0].split()[0] == lines[1].split()[0]
