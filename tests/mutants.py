"""Mutation check: each row breaks one line of a copy of the tree and names the tests that must fail.

Run from the repository root, with the standard library and pytest only:

    python tests/mutants.py

For each row the runner copies src/, tests/, README.md and pyproject.toml
to a temporary directory, replaces the row's old text, which must occur
exactly once in its file, with the new text, and runs the row's node ids
there with pytest, PYTHONPATH at the copy's src/. A row is

- killed when every node id it names fails (a node id without a
  parameter fails when any of its cases fails),
- alive when one of them passes,
- stale when the old text no longer occurs exactly once,
- timed out when pytest runs past TIMEOUT seconds (never killed),
- an error when pytest exits neither with failures nor with a pass.

Before any row, the unmutated copy must pass every node id of the
table. The runner exits 0 only when it does and every row is killed.
A change to code under a row updates that row's old text; a change
that cites a new mutant adds a row.

The name of this file keeps it out of pytest's collection.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ["src", "tests", "README.md", "pyproject.toml"]
TIMEOUT = 30  # seconds per row; the unmutated copy, which runs every node id, gets twice that

POLY, LINALG, GRING = "src/griforge/poly.py", "src/griforge/linalg.py", "src/griforge/gring.py"
LATTICE, GRI, FFIELD = "src/griforge/lattice.py", "src/griforge/gri.py", "src/griforge/ffield.py"
F2_BEN_OR = "tests/test_poly.py::test_irreducibility_f2_matches_list_kernel"
IN_BOX = "tests/test_properties.py::test_in_box_matches_min_max_of_vec_mat"
LOWERED = "tests/test_properties.py::test_lowered_packing_takes_raw_draws"
F2_ROOT = "tests/test_ffield.py::test_find_root_f2_matches_list_kernel"
NON_INTEGER = "tests/test_lattice.py::test_entry_points_refuse_non_integer_entries"

# (name, file, old text, new text, node ids that must fail)
ROWS = [
    ("f2-rem-strict", POLY,
     "    while (d := a.bit_length() - k) >= 0:\n",
     "    while (d := a.bit_length() - k) > 0:\n",
     ["tests/test_properties.py::test_f2_rem_matches_schoolbook_rem"]),
    ("f2-euclid-to-zero", POLY,
     "            while b > 1:",
     "            while b > 0:",
     [F2_BEN_OR, "tests/test_poly.py::test_irreducibility_examples"]),
    ("odd-monomial-at-n", POLY,
     "        if q < n:\n",
     "        if q <= n:\n",
     ["tests/test_poly.py::test_irreducibility_where_a_frobenius_step_first_reaches_n[3-9]",
      "tests/test_poly.py::test_irreducibility_where_a_frobenius_step_first_reaches_n[5-5]"]),
    ("eval-block-short", POLY,
     "zip(cs[j : j + k], baby)",
     "zip(cs[j : j + k - 1], baby)",
     ["tests/test_properties.py::test_eval_poly_matches_horner"]),
    ("in-box-low-edge", LINALG,
     "if b < (x & mask) % m < m - b:",
     "if b <= (x & mask) % m < m - b:",
     [IN_BOX]),
    ("in-box-high-edge", LINALG,
     "if b < (x & mask) % m < m - b:",
     "if b < (x & mask) % m <= m - b:",
     [IN_BOX]),
    ("in-box-no-clamp", LINALG,
     "offset), max(beta, 0)",
     "offset), beta",
     [IN_BOX]),
    ("in-box-f2-bound-one-up", LINALG,
     "(m - 1 - 2 * b) * ones",
     "(m - 2 * b) * ones",
     [IN_BOX]),
    ("in-box-f2-no-wrap", LINALG,
     "y = ((x & low) + b * ones) & low",
     "y = (x & low) + b * ones",
     [IN_BOX]),
    ("in-box-f2-half-not-whole", LINALG,
     "2 * b >= m or",
     "2 * b > m or",
     [IN_BOX]),
    ("lowered-one-more", LINALG,
     "return rows, offset - k * sum(rows), w",
     "return rows, offset - (k + 1) * sum(rows), w",
     [LOWERED]),
    ("lowered-one-less", LINALG,
     "return rows, offset - k * sum(rows), w",
     "return rows, offset - (k - 1) * sum(rows), w",
     [LOWERED]),
    ("root-check-below-top-digit", GRING,
     "sum(map(operator.mul, src.f.coeffs, col)) % m for col",
     "sum(map(operator.mul, src.f.coeffs, col)) % (m // dst.p) for col",
     ["tests/test_gring.py::test_root_check_sees_the_top_p_adic_digit",
      "tests/test_cli.py::test_phi_x_off_in_the_top_p_adic_digit_rejected"]),
    ("hnf-past-last-row", LATTICE,
     "        if r == nr:\n            break\n",
     "",
     ["tests/test_lattice.py::test_hnf_row_basis_of_wide_full_rank_rows"]),
    ("lattice-rows-by-int", LATTICE,
     "rows = [list(map(index, r)) for r in rows]",
     "rows = [list(map(int, r)) for r in rows]",
     [NON_INTEGER]),
    ("lattice-vector-by-int", LATTICE,
     "res = list(map(index, v))",
     "res = list(map(int, v))",
     [NON_INTEGER]),
    ("extract-keeps-zero-rows", LATTICE,
     "        if not any(row):\n            continue\n",
     "",
     ["tests/test_lattice.py::test_extract_closed_under_negation_and_verified"]),
    ("attack-negated-combo-uncentered", LATTICE,
     "combo = tuple(centered(-c, m) for c in neg)",
     "combo = tuple(-c for c in neg)",
     ["tests/test_lattice.py::test_run_attack_combos_match_a_solve_of_each_candidate"]),
    ("oracle-boxes-every-first", GRI,
     "        first, last = pair\n",
     "        first, last = pair\n        short(first)\n",
     ["tests/test_gri.py::test_oracle_pulls_back_only_a_uniform_first_candidate"]),
    ("readme-names-tmonic", "README.md",
     "one packed multiply (`_tmul`)",
     "one packed multiply (`_tmul`, `_tmonic`)",
     ["tests/test_package.py::test_readme_names_only_private_names_that_exist"]),
    ("f2-root-no-t-mask", FFIELD,
     "u = red((q * hlo ^ u) & below)",
     "u = red(q * hlo ^ u)",
     [F2_ROOT]),
    ("f2-root-narrow-slot", FFIELD,
     "w = (n * n).bit_length()",
     "w = max(1, (n * n).bit_length() - 1)",
     [F2_ROOT]),
    ("f2-root-no-parity-and", FFIELD,
     "return (x ^ q * fbar) & lo",
     "return x ^ q * fbar",
     [F2_ROOT]),
]


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def run_pytest(tree: Path, node_ids, timeout):
    """pytest's exit code (None on timeout) and the node ids it reports as failed."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
           "--rootdir", str(tree), *node_ids]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, set(), ""
    failed = {line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAILED ")}
    return done.returncode, failed, done.stdout


def named_failed(node_id, failed) -> bool:
    return any(f == node_id or f.startswith(node_id + "[") for f in failed)


def run_row(row):
    """The row's status and a detail line."""
    _, path, old, new, node_ids = row
    with tempfile.TemporaryDirectory(prefix="griforge-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / path
        text = target.read_text() if target.is_file() else ""
        if text.count(old) != 1:
            return "stale", f"old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        code, failed, out = run_pytest(tree, node_ids, TIMEOUT)
    if code is None:
        return "timed out", f"past {TIMEOUT} s"
    survivors = [n for n in node_ids if not named_failed(n, failed)]
    if code == 1 and not survivors:
        return "killed", f"{len(failed)} failed"
    if code in (0, 1):
        return "alive", "passing: " + ", ".join(survivors)
    return "error", f"pytest exit {code}: " + " | ".join(out.strip().splitlines()[-3:])


def main() -> int:
    start = time.perf_counter()
    node_ids = list(dict.fromkeys(n for row in ROWS for n in row[4]))
    with tempfile.TemporaryDirectory(prefix="griforge-unmutated-") as tmp:
        copy_tree(Path(tmp))
        code, failed, out = run_pytest(Path(tmp), node_ids, 2 * TIMEOUT)
    if code != 0:
        print(out)
        print(f"unmutated copy: pytest exit {code}, failed: {sorted(failed)}")
        return 1
    print(f"unmutated copy passes {len(node_ids)} node ids")
    statuses = []
    for row in ROWS:
        t = time.perf_counter()
        status, detail = run_row(row)
        statuses.append(status)
        print(f"{row[0]:28} {status:9} {time.perf_counter() - t:5.1f} s  {detail}", flush=True)
    killed = statuses.count("killed")
    print(f"{killed} of {len(ROWS)} killed in {time.perf_counter() - start:.1f} s")
    return 0 if killed == len(ROWS) else 1


if __name__ == "__main__":
    raise SystemExit(main())
