import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_docstrings_comments_and_blank_lines_do_not_count():
    source = '''"""Module docstring
over two lines."""

# a comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        # another comment

        return 1  # a trailing comment

    async def g(self):
        """Coroutine docstring."""
        return 2
'''
    # class A, def f, return 1, async def g, return 2
    assert code_lines.code_lines(source) == 5


def test_statement_over_three_lines_counts_three():
    assert code_lines.code_lines("x = max(\n    1,\n    2)\n") == 3
    assert code_lines.code_lines('x = """a\nb\nc"""\n') == 3


def test_string_expression_that_is_not_a_docstring_counts():
    assert code_lines.code_lines('x = 1\n"""not a docstring"""\n') == 2
    assert code_lines.code_lines('def f():\n    pass\n    "after the body starts"\n') == 3


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "a.py").write_text('"""Doc."""\nimport os\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     1  a.py",
        "     2  b.py",
        "     3  total",
    ]
