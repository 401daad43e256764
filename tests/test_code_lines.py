"""tools/code_lines.py counts the lines that are not blank, comment or docstring."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# 5 code lines: the import, the def, both lines of the assigned string and the return
SAMPLE = textwrap.dedent('''\
    """A module docstring,
    over two lines."""

    # a comment-only line

    import os  # a trailing comment


    def f():
        """A function docstring."""
        # another comment-only line
        text = """a multi-line string
    assigned to a name"""
        """a bare multi-line string
        expression"""
        return text
''')


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert code_lines.code_lines(path) == 5


def test_main_prints_a_line_per_file_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        f"     5  {tmp_path / 'a.py'}\n"
        f"     1  {tmp_path / 'sub' / 'b.py'}\n"
        "     6  total\n"
    )
