"""Package-wide invariants checked on the source text, and the README's library example."""

import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
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


def test_public_names():
    # The top level exports a name only where the README example, CI, the benchmark or the
    # acceptance suite takes it from there (see griforge/__init__.py); a new export edits this
    # list. A fresh interpreter, since importing griforge.cli binds `cli` on the package.
    script = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import griforge; "
              "print(*sorted(n for n in vars(griforge) if not n.startswith('_')))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout.split() == [
        "AttackReport", "CompositeCtx", "CompositeIsomorphism", "ExperimentReport",
        "GriInstance", "GriParams", "GriSecret", "Isomorphism", "Modulus", "Poly", "RingCtx",
        "RingElem", "build_attack_lattice", "build_composite_iso", "build_ring_iso", "crt",
        "crt_combine_elems", "crt_combine_polys", "errors", "eval_poly", "ffield",
        "field_iso_from_root", "find_root", "gen_instance", "gri", "gring", "hensel_iterates",
        "hensel_lift", "hnf_row_basis", "in_lattice", "is_irreducible_mod_p", "lattice",
        "linalg", "lll_reduce", "oracle_strategy", "poly", "random_guess_strategy",
        "random_monic_irreducible", "reduce_to_ffi", "run_attack",
        "run_distinguisher_experiment", "zmod",
    ]


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
