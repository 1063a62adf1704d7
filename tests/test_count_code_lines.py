"""scripts/count_code_lines.py: the code-line counter that the code-size
aim is measured with."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "scripts" / "count_code_lines.py"
_spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

# the lines that count are marked "code"
SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # code


# a comment-only line
class Box:  # code
    """Class docstring."""

    def size(self, x):  # code
        """Function
        docstring."""
        total = (x +  # code
                 # a comment-only line inside brackets
                 os.sep.count("/"))  # code
        text = """not a
docstring"""  # code, as is the line above
        return total, text  # code
'''


def test_code_lines_of_snippet():
    # import, class, def, the expression's two lines, the string's two
    # lines and the return
    assert count_code_lines.code_lines(SNIPPET) == 8
