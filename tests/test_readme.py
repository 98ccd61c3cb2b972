"""The README's examples call the package as it is.

The examples are too slow to run in a test.  Each call of a harmosep
name in the library example is checked against the callee's signature
instead: the positional and keyword arguments, with placeholders for
their values, must bind.  Each ``harmosep`` command line must parse,
flags and configuration keys included.
"""

import ast
import importlib
import inspect
import re
import shlex
from pathlib import Path

from harmosep.cli import build_parser, load_config

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


def _command_lines():
    """The ``harmosep`` lines of the README's shell blocks, with their
    continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("harmosep "):
                lines.append(line)
    return lines


def test_readme_commands_parse():
    lines = _command_lines()
    assert len(lines) == 5
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        load_config(args.config, args.overrides)
