"""`python -O` guard: no dimermod module checks anything with an `assert` statement, which -O strips."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "dimermod")


def assert_statements(src=SRC):
    """(file, line) of each assert statement in the modules of src."""
    out = []
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        out += [(name, node.lineno) for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    return out


def test_no_module_checks_with_assert():
    assert assert_statements() == []


def test_the_guard_sees_nested_asserts(tmp_path):
    (tmp_path / "a.py").write_text("def f(x):\n    if x:\n        assert x > 0, 'x'\n    return x\n")
    (tmp_path / "b.py").write_text("class C:\n    def g(self):\n        raise AssertionError('kept by -O')\n")
    assert assert_statements(str(tmp_path)) == [("a.py", 3)]
