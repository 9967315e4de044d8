"""Package-wide invariants checked on the source text, and the README's library example."""

import ast
import sys
from pathlib import Path

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
