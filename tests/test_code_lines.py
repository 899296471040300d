"""The code-line counter ``tests/code_lines.py``, on sources of known count."""

import textwrap

from code_lines import code_lines, main

SOURCE = textwrap.dedent(
    '''\
    """Module docstring,
    over two lines."""

    # a comment line
    import os  # a trailing comment


    class Box:
        """Class docstring."""

        def total(self, a,
                  b):
            """Function docstring,

            with a blank line inside."""
            # another comment
            return (a
                    # a comment inside the brackets
                    + b)


    TEXT = """a string that is no docstring,
    so each of its lines counts"""
    '''
)
# import, class, the two lines of def, the two code lines of the return
# (not the comment between them), and the two lines of TEXT
COUNT = 8


def test_docstrings_comments_and_blanks_are_not_counted_and_split_statements_are(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    assert code_lines(path) == COUNT


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\nx = [1,\n     2]\n')
    assert main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a 2\nb %d\ntotal %d\n" % (COUNT, COUNT + 2)
