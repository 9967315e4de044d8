"""Seeded mutation fuzz of the file loaders behind the CLI.

Valid params, instance and composite files get one to three random
line edits each and go to the code that reads them. Every case must end
in exit code 0 or 3 (a `ValidationError` or another `GriforgeError`
with a message), never in an uncaught exception or an internal breach.
Composite files have no command that reads them, so they go straight to
`load_composite`, which must return or raise what `main` maps to exit 3.
"""

import random

from griforge import gen_instance
from griforge.cli import load_composite, main, serialize_instance
from griforge.errors import GriforgeError

CASES = 60  # per file kind
VALUES = ("0", "1", "-1", "2", "3", "5", "7", "64", "65", "257", "1000003", "",
          "x", "1.5", "1e5", "9" * 5000, "1,2", "0,1,,1")


def _mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        key, sep, value = lines[i].partition(": ")
        op = rng.randrange(7)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        elif op == 2:
            lines[i] = f"{key}{sep}{rng.choice(VALUES)}"
        elif op == 3:
            lines[i] = f"{key}{sep}{rng.randrange(-10**6, 10**6)}"
        elif op == 4 and "," in value:
            toks = value.split(",")
            j = rng.randrange(len(toks))
            edit = rng.randrange(3)
            if edit == 0:
                toks[j] = str(rng.choice((-1, 1, 8, 1000003, rng.randrange(-9, 10))))
            elif edit == 1:
                del toks[j]
            else:
                toks.insert(j, str(rng.randrange(-9, 10)))
            lines[i] = f"{key}{sep}{','.join(toks)}"
        elif op == 5:
            lines[i] = f"{key}.x{sep}{value}"
        elif op == 6:
            j = rng.randrange(len(lines))
            other = lines[j].partition(": ")
            lines[i], lines[j] = f"{key}{sep}{other[2]}", f"{other[0]}{other[1]}{value}"
        if not lines:
            break
    return "\n".join(lines) + "\n"


def _valid_files(tmp_path):
    """An iso params file at (2,3,4), a second one at (3,2,4) and their composite."""
    files = {}
    for name, p, s in (("a", 2, 3), ("b", 3, 2)):
        params = tmp_path / f"{name}.params"
        assert main(["gen-params", "--p", str(p), "--s", str(s), "--n", "4", "--beta", "1",
                     "--k", "3", "--seed", "7", "--out", str(params)]) == 0
        files[name] = tmp_path / f"{name}.iso"
        assert main(["make-iso", "--in", str(params), "--seed", "5",
                     "--out", str(files[name])]) == 0
    files["composite"] = tmp_path / "ab.composite"
    assert main(["crt-combine", "--in", str(files["a"]), "--in", str(files["b"]),
                 "--out", str(files["composite"])]) == 0
    return files


def test_mutated_files_fail_cleanly(tmp_path, capsys):
    files = _valid_files(tmp_path)
    inst = gen_instance(2, 3, 4, 1, 3, random.Random(3))
    texts = {
        "params": files["a"].read_text(),
        "instance": serialize_instance(inst),
        "public": serialize_instance(inst, include_secret=False),
        "composite": files["composite"].read_text(),
    }
    rng = random.Random(2024)
    bad = tmp_path / "bad.txt"
    out = str(tmp_path / "out.txt")
    codes = []
    for kind, text in texts.items():
        for case in range(CASES):
            mutated = _mutate(text, rng)
            if kind == "composite":
                try:
                    load_composite(mutated)
                    codes.append(0)
                except (GriforgeError, ValueError):
                    codes.append(3)
                continue
            bad.write_text(mutated)
            if kind == "params":
                argv = [["sample", "--in", str(bad), "--seed", "1", "--out", out],
                        ["make-iso", "--in", str(bad), "--seed", "1", "--out", out],
                        ["crt-combine", "--in", str(bad), "--in", str(files["b"]), "--out", out],
                        ][case % 3]
            else:
                argv = ["attack", "--in", str(bad), "--out", out]
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 3) and "Traceback" not in err, (argv, mutated, code, err)
            codes.append(code)
    # the mutations must reach past the header: some cases still load
    assert codes.count(0) >= 10 and codes.count(3) >= 100
