"""The README's library example runs, and every value comment in it holds."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    """The first python code block under the README's `## Library` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_values():
    source = library_block()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.lineno in comments:
            # an expression line's comment is the repr of its value
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert repr(value) == comments[stmt.lineno], ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked, "no value comments to check"
