import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block():
    """The python code block under the README's "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def matches(value, expected):
    """Whether ``value`` reads as the comment expression ``expected``: a constant is equal
    (floats within 1e-12), ``~x`` is x to the decimals it shows, and a tuple or list
    matches element by element."""
    if isinstance(expected, (ast.Tuple, ast.List)):
        return (type(value) is (tuple if isinstance(expected, ast.Tuple) else list)
                and len(value) == len(expected.elts)
                and all(matches(v, e) for v, e in zip(value, expected.elts)))
    if isinstance(expected, ast.UnaryOp) and isinstance(expected.op, ast.Invert):
        want = expected.operand.value
        decimals = len(repr(want).partition(".")[2])
        return abs(value - want) <= 0.5 * 10.0**-decimals
    want = expected.value
    if isinstance(want, float):
        return abs(value - want) <= 1e-12
    return value == want and type(value) is type(want)


def test_quickstart_prints_its_comments():
    # every bare expression of the block ends in a comment that states its value
    source = quickstart_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(source).body:
        if not isinstance(statement, ast.Expr):
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
            continue
        comment = lines[statement.end_lineno - 1].partition("#")[2].strip()
        expected = ast.parse(comment, mode="eval").body
        value = eval(compile(ast.Expression(statement.value), str(README), "eval"), namespace)
        assert matches(value, expected), (comment, value)
        checked.append(comment)
    assert len(checked) == 3
