"""The code-line counter behind the "code lines" figures in ROADMAP/CHANGES."""

from tools.count_code_lines import code_lines, main

SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment does not make a second line


def f(x):
    """One-line docstring."""

    return (x +
            1)
'''


def test_docstrings_comments_and_blanks_are_not_counted():
    # import, def, return and its continuation line.
    assert code_lines(SOURCE) == 4


def test_directory_total_is_the_sum_over_its_files(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")

    assert main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"     4 {tmp_path / 'pkg' / 'a.py'}",
        f"     2 {tmp_path / 'pkg' / 'sub' / 'b.py'}",
        "     6 total",
    ]

    main([str(tmp_path / "pkg" / "a.py"), str(tmp_path / "pkg" / "sub" / "b.py")])
    assert capsys.readouterr().out.splitlines()[-1] == "     6 total"
