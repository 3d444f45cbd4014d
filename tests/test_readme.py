import ast
from pathlib import Path

from cppforge import field_new
from cppforge.poly import parse_poly

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch():
    """The README's "Library sketch" block runs and gives the values its comments state."""
    text = README.read_text()
    block = text.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    ns: dict = {}
    values = []  # the value of each bare expression, in order
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), ns)
    assert ns["h"] == parse_poly("t^6+t^3+1", field_new(2))
    assert values == [
        {"fixed": 1, "cycles": {"9": 7}},
        (True, True),
        [108, 183, 218],
        ["pass", "pass"],
    ]
