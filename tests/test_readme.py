"""The README's library example calls the package as it is.

The example is too slow to run in a test, so each call of a harmosep
name is checked against the callee's signature instead: the positional
and keyword arguments, with placeholders for their values, must bind.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def _harmosep_names(tree):
    """Names the block imports from harmosep, mapped to the objects."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "harmosep":
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module,
                                                            alias.name)
    return names


def test_readme_has_python_example():
    assert _python_blocks()


def test_readme_calls_bind_to_signatures():
    checked = 0
    for block in _python_blocks():
        tree = ast.parse(block)
        names = _harmosep_names(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in names):
                continue
            signature = inspect.signature(names[node.func.id])
            args = [None] * len(node.args)
            kwargs = {kw.arg: None for kw in node.keywords}
            try:
                signature.bind(*args, **kwargs)
            except TypeError as exc:
                raise AssertionError(
                    f"README line {node.lineno}: {ast.unparse(node)} "
                    f"does not match {node.func.id}{signature}: {exc}"
                ) from None
            checked += 1
    assert checked > 0
