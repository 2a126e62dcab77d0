"""README's Python examples run against the package and give the values
their comments document.

The ```python blocks are run in order in one namespace.  A statement
that is a bare expression with a trailing comment documents its value:
the comment is a Python literal, or ``array(<literal>)`` for a numpy
array.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _documented(comment: str):
    """The value a trailing comment documents, as a plain Python value."""
    text = comment.strip()
    match = re.fullmatch(r"array\((.*)\)", text)
    return ast.literal_eval(match.group(1) if match else text)


def test_readme_python_blocks_give_the_documented_values():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    namespace = {}
    checked = []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            line = lines[stmt.end_lineno - 1]
            if isinstance(stmt, ast.Expr) and "#" in line:
                value = eval(compile(ast.Expression(stmt.value), README.name, "eval"), namespace)
                if hasattr(value, "tolist"):
                    value = value.tolist()
                expected = _documented(line.split("#", 1)[1])
                assert value == expected, ast.unparse(stmt)
                checked.append(expected)
            else:
                exec(compile(ast.Module([stmt], []), README.name, "exec"), namespace)
    assert checked == [True, "holds-on-sample", (0.0, 1, 31), [0.5, 1.5], (2, 0.25), True, True,
                       True, True, (2.0, True)]
