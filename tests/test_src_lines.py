import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment leaves the line code

# a comment line


def f(x):
    """A one-line docstring."""
    text = """a string
that is code"""
    return x, text
'''


def test_each_line_gets_one_kind():
    assert src_lines.count_lines(MODULE) == {"code": 5, "docstring": 3, "comment": 1, "blank": 4}


def test_blank_lines_inside_a_docstring_are_docstring():
    assert src_lines.count_lines('def f():\n    """Doc.\n\n    More."""\n') == {
        "code": 1, "docstring": 3, "comment": 0, "blank": 0,
    }


def test_the_total_row_adds_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "lines", "code", "docstring", "comment", "blank"]
    assert rows[1:] == [
        ["a", "13", "5", "3", "1", "4"],
        ["b", "2", "1", "0", "0", "1"],
        ["total", "15", "6", "3", "1", "5"],
    ]


def test_against_a_revision_prints_both_trees_and_the_change(tmp_path, monkeypatch, capsys):
    here = tmp_path / "here"
    here.mkdir()
    (here / "a.py").write_text(MODULE)
    (here / "c.py").write_text("y = 2\n")
    exported = []

    def export(rev, dest):
        exported.append(rev)
        package = dest / "src" / "microreserve"
        package.mkdir(parents=True)
        (package / "a.py").write_text(MODULE + "\n\nz = 3\n")
        (package / "b.py").write_text("x = 1\n\n")

    monkeypatch.setattr(src_lines, "export_revision", export)
    assert src_lines.main([str(here), "--against", "base"]) == 0
    assert exported == ["base"]
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "lines@rev", "lines", "change", "code@rev", "code", "change"]
    # a lost three lines, one of them code; b is gone and c is new.
    assert rows[1:] == [
        ["a", "16", "13", "-3", "6", "5", "-1"],
        ["b", "2", "0", "-2", "1", "0", "-1"],
        ["c", "0", "1", "+1", "0", "1", "+1"],
        ["total", "18", "14", "-4", "7", "6", "-1"],
    ]
