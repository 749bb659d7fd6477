"""Layering guard: no dimermod module imports or reads a `_`-prefixed name of another dimermod module."""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "dimermod")


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(src=SRC):
    """(module, other module, name) for each private name a module of src takes from another one."""
    modules = {f[:-3] for f in os.listdir(src) if f.endswith(".py")}
    out = []
    for mod in sorted(modules):
        with open(os.path.join(src, mod + ".py")) as fh:
            tree = ast.parse(fh.read())
        aliases = {}  # local name -> the dimermod module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    home = node.module or "__init__"
                elif node.level == 0 and (node.module or "").split(".")[0] == "dimermod":
                    home = (node.module.split(".") + ["__init__"])[1]
                else:
                    continue
                for a in node.names:
                    if home == "__init__" and a.name in modules:
                        aliases[a.asname or a.name] = a.name
                    elif home != mod and _private(a.name):
                        out.append((mod, home, a.name))
            elif isinstance(node, ast.Import):
                for a in node.names:
                    parts = a.name.split(".")
                    if parts[0] == "dimermod" and len(parts) == 2 and a.asname:
                        aliases[a.asname] = parts[1]
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and aliases.get(node.value.id, mod) != mod
                and _private(node.attr)
            ):
                out.append((mod, aliases[node.value.id], node.attr))
    return sorted(set(out))


def test_no_module_reaches_a_private_name_of_another():
    assert private_uses() == []


def test_the_guard_sees_both_import_and_attribute_forms(tmp_path):
    (tmp_path / "a.py").write_text("def _hidden():\n    pass\n\ndef shown():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import _hidden, shown\nfrom . import a as alias\nfrom dimermod.a import _hidden as h\n"
        "alias._hidden()\nalias.shown()\nalias.__name__\n"
    )
    (tmp_path / "c.py").write_text("import dimermod.a as m\nfrom math import gcd as _gcd\nm._hidden\n")
    assert private_uses(str(tmp_path)) == [("b", "a", "_hidden"), ("c", "a", "_hidden")]
