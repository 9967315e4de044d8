"""Package-wide invariants checked on the source text, and the README's library example."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import griforge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "griforge"


def test_no_runtime_dependencies():
    # griforge imports only its own modules and the standard library.
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {root}"


def test_no_bare_asserts():
    # python -O strips assert statements; invariants raise InvariantBreach instead.
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} uses assert"


def test_readme_library_example_runs(capsys):
    block = (ROOT / "README.md").read_text().split("## Library example")[1].split("```python")[1]
    exec(compile(block.split("```")[0], "README.md", "exec"), {})
    assert "short candidates, gaussian heuristic" in capsys.readouterr().out


def test_readme_names_only_private_names_that_exist():
    # Every backticked private name in the "What is inside" table is defined by some
    # griforge module or class; `_raw_*` stands for any name with that prefix.
    table = (ROOT / "README.md").read_text().split("## What is inside")[1].split("\n## ")[0]
    named = {name for span in re.findall(r"`([^`]+)`", table)
             for name in re.findall(r"\b_\w+\*?", span)}
    assert {"_raw_divmod", "_tmul", "_Quotient"} <= named
    defined = set()
    for info in pkgutil.iter_modules(griforge.__path__):
        module = importlib.import_module(f"griforge.{info.name}")
        defined.update(vars(module))
        for _, cls in inspect.getmembers(module, inspect.isclass):
            defined.update(vars(cls))
    for name in named:
        if name.endswith("*"):
            assert any(d.startswith(name[:-1]) for d in defined), name
        else:
            assert name in defined, name
