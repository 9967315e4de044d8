import os
import random
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import griforge
import griforge.cli as cli
import griforge.gring as gring
from griforge import gen_instance
from griforge.cli import (
    load_composite,
    load_instance,
    load_params,
    main,
    serialize_instance,
)
from griforge.errors import ValidationError
from griforge.zmod import MAX_MODULUS_BITS, centered


def _run(*argv):
    return main(list(argv))


def _gen(tmp_path, name="params.txt", p=2, s=3, n=4, seed=7, extra=()):
    out = tmp_path / name
    code = _run(
        "gen-params", "--p", str(p), "--s", str(s), "--n", str(n),
        "--seed", str(seed), "--out", str(out), *extra,
    )
    assert code == 0
    return out


def _iso(tmp_path):
    iso_file = tmp_path / "iso.txt"
    assert _run("make-iso", "--in", str(_gen(tmp_path)), "--seed", "5",
                "--out", str(iso_file)) == 0
    return iso_file


def test_gen_params_deterministic(tmp_path):
    a = _gen(tmp_path, "a.txt")
    b = _gen(tmp_path, "b.txt")
    assert a.read_bytes() == b.read_bytes()
    data = load_params(a.read_text())
    assert (data.dst.p, data.dst.s, data.dst.n, data.seed) == (2, 3, 4, 7)
    assert data.dst.f.is_monic and data.src.f.is_monic


def test_gen_params_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("GRIFORGE_SEED", "7")
    out = tmp_path / "env.txt"
    assert _run("gen-params", "--p", "2", "--s", "3", "--n", "4", "--out", str(out)) == 0
    assert out.read_bytes() == _gen(tmp_path, "flag.txt").read_bytes()


def test_gen_params_unseeded(tmp_path, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV, raising=False)
    out = tmp_path / "unseeded.txt"
    assert _run("gen-params", "--p", "2", "--s", "4", "--n", "3", "--out", str(out)) == 0
    assert load_params(out.read_text()).seed is None
    assert "seed:" not in out.read_text()


def test_gen_params_validation_errors(tmp_path, capsys):
    out = tmp_path / "x.txt"
    assert _run("gen-params", "--p", "4", "--s", "1", "--n", "2", "--out", str(out)) == 3
    assert "p must be prime" in capsys.readouterr().err
    assert _run("gen-params", "--p", "2", "--s", "1", "--n", "0", "--out", str(out)) == 3


@pytest.mark.parametrize("flag, value", [
    ("--beta", "0"), ("--beta", "-1"), ("--beta", "128"), ("--beta", "200"),
    ("--k", "0"), ("--k", "-3"),
])
def test_gen_params_rejects_beta_and_k_no_command_accepts(tmp_path, capsys, flag, value):
    # at m = 2^8 sampling needs 1 <= beta < 128 and k >= 1
    out = tmp_path / "x.txt"
    code = _run("gen-params", "--p", "2", "--s", "8", "--n", "6", flag, value,
                "--seed", "1", "--out", str(out))
    assert code == 3
    assert f"{flag[2:]} = {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("beta", "0"), ("beta", "-1"), ("beta", "128"), ("beta", "200"), ("k", "0"), ("k", "-3"),
])
def test_params_file_with_beta_or_k_no_command_accepts_is_rejected(tmp_path, capsys, field,
                                                                    value):
    params = _gen(tmp_path, p=2, s=8, n=6, seed=1, extra=("--beta", "127", "--k", "3"))
    good = {"beta": "beta: 127\n", "k": "k: 3\n"}[field]
    bad = params.read_text().replace(good, f"{field}: {value}\n")
    with pytest.raises(ValidationError, match=f"{field} = {value}"):
        load_params(bad)
    params.write_text(bad)
    assert _run("make-iso", "--in", str(params), "--seed", "1",
                "--out", str(tmp_path / "iso.txt")) == 3
    assert f"{field} = {value}" in capsys.readouterr().err


def test_largest_beta_gen_params_accepts_samples(tmp_path):
    params = _gen(tmp_path, p=2, s=8, n=6, seed=1, extra=("--beta", "127", "--k", "3"))
    iso = tmp_path / "iso.txt"
    inst = tmp_path / "inst.txt"
    assert _run("make-iso", "--in", str(params), "--seed", "1", "--out", str(iso)) == 0
    assert _run("sample", "--in", str(iso), "--seed", "1", "--out", str(inst)) == 0
    assert load_instance(inst.read_text()).params.beta == 127


def test_usage_error_exits_2(tmp_path):
    first = _gen(tmp_path)  # main keeps one parser per process
    with pytest.raises(SystemExit) as exc:
        _run("gen-params", "--p", "2")  # missing required flags
    assert exc.value.code == 2
    assert _gen(tmp_path, "again.txt").read_bytes() == first.read_bytes()


def test_make_iso_roundtrip(tmp_path):
    params = _gen(tmp_path)
    iso_file = tmp_path / "iso.txt"
    assert _run("make-iso", "--in", str(params), "--seed", "5", "--out", str(iso_file)) == 0
    data = load_params(iso_file.read_text())  # load re-validates phi_x as a root
    assert data.iso is not None
    twice = tmp_path / "iso2.txt"
    assert _run("make-iso", "--in", str(params), "--seed", "5", "--out", str(twice)) == 0
    assert iso_file.read_bytes() == twice.read_bytes()


def test_corrupted_phi_x_rejected(tmp_path, capsys):
    params = _gen(tmp_path)
    iso_file = tmp_path / "iso.txt"
    _run("make-iso", "--in", str(params), "--seed", "5", "--out", str(iso_file))
    lines = iso_file.read_text().splitlines()
    tampered = [
        "secret.phi_x: 0" if line.startswith("secret.phi_x:") else line for line in lines
    ]
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(tampered) + "\n")
    code = _run("sample", "--in", str(bad), "--beta", "1", "--k", "2",
                "--seed", "1", "--out", str(tmp_path / "inst.txt"))
    assert code == 3
    assert "phi_x" in capsys.readouterr().err


def test_phi_x_off_in_the_top_p_adic_digit_rejected(tmp_path, capsys):
    # phi_x + 2^7 is a root of secret.f modulo 2^7 but not modulo 2^8
    params = _gen(tmp_path, p=2, s=8, n=6, seed=3)
    iso_file = tmp_path / "iso.txt"
    assert _run("make-iso", "--in", str(params), "--seed", "3", "--out", str(iso_file)) == 0
    lines = iso_file.read_text().splitlines()
    [phi_x] = [line for line in lines if line.startswith("secret.phi_x: ")]
    cs = [int(c) for c in phi_x.split(": ")[1].split(",")]
    cs[0] = centered(cs[0] + 2**7, 2**8)
    bad = tmp_path / "bad.txt"
    bad.write_text("\n".join(
        "secret.phi_x: " + ",".join(map(str, cs)) if line == phi_x else line for line in lines
    ) + "\n")
    code = _run("sample", "--in", str(bad), "--beta", "1", "--k", "2",
                "--seed", "1", "--out", str(tmp_path / "inst.txt"))
    assert code == 3
    assert "phi_x" in capsys.readouterr().err


def test_phi_x_plus_f_of_degree_n_rejected(tmp_path, capsys):
    # phi_x + F is phi_x's class, but not its representative of degree < n
    iso_file = _iso(tmp_path)
    text = iso_file.read_text()
    fields = dict(line.split(": ", 1) for line in text.splitlines()[1:])
    phi_x, big_f = ([int(c) for c in fields[key].split(",")] for key in ("secret.phi_x", "F"))
    shifted = [a + b for a, b in zip(phi_x + [0] * (len(big_f) - len(phi_x)), big_f)]
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(f"secret.phi_x: {fields['secret.phi_x']}\n",
                                f"secret.phi_x: {','.join(map(str, shifted))}\n"))
    argv = ["sample", "--beta", "1", "--k", "2", "--seed", "1", "--out", str(tmp_path / "i.txt")]
    assert _run(*argv, "--in", str(iso_file)) == 0
    capsys.readouterr()
    assert _run(*argv, "--in", str(bad)) == 3
    assert "secret.phi_x" in capsys.readouterr().err


def test_sample_attack_pipeline(tmp_path, capsys):
    params = _gen(tmp_path, p=2, s=8, n=6, seed=3)
    iso_file = tmp_path / "iso.txt"
    assert _run("make-iso", "--in", str(params), "--seed", "3", "--out", str(iso_file)) == 0
    inst_file = tmp_path / "inst.txt"
    assert _run("sample", "--in", str(iso_file), "--beta", "1", "--k", "12",
                "--seed", "4", "--out", str(inst_file)) == 0
    pub_file = tmp_path / "pub.txt"
    assert _run("sample", "--in", str(iso_file), "--beta", "1", "--k", "12",
                "--seed", "4", "--public-only", "--out", str(pub_file)) == 0
    assert "secret" not in pub_file.read_text()

    report_file = tmp_path / "report.txt"
    assert _run("attack", "--in", str(pub_file), "--out", str(report_file)) == 0
    out = capsys.readouterr().out
    assert "candidates within bounds" in out
    report_text = report_file.read_text()
    assert report_text.startswith("griforge 1\nkind: attack-report\n")

    # attacking the secret-bearing file gives the identical report file:
    # the attack consumes only the public section
    report2 = tmp_path / "report2.txt"
    assert _run("attack", "--in", str(inst_file), "--out", str(report2)) == 0
    assert report_file.read_bytes() == report2.read_bytes()

    capsys.readouterr()
    assert _run("attack", "--in", str(pub_file), "--gh-factor", "-0.8") == 3
    assert "gh_factor" in capsys.readouterr().err


def test_attack_defaults_are_the_library_defaults(tmp_path):
    iso_file = _iso(tmp_path)
    pub_file = tmp_path / "pub.txt"
    assert _run("sample", "--in", str(iso_file), "--beta", "1", "--k", "8",
                "--seed", "4", "--public-only", "--out", str(pub_file)) == 0
    default, explicit = tmp_path / "default.txt", tmp_path / "explicit.txt"
    assert _run("attack", "--in", str(pub_file), "--out", str(default)) == 0
    assert _run("attack", "--in", str(pub_file), "--delta", "0.99", "--gh-factor", "0.8",
                "--out", str(explicit)) == 0
    assert default.read_bytes() == explicit.read_bytes()
    assert "delta: 99/100\n" in default.read_text()


def test_instance_roundtrip_bytes(tmp_path):
    params = _gen(tmp_path, p=2, s=4, n=3, seed=9)
    iso_file = tmp_path / "iso.txt"
    _run("make-iso", "--in", str(params), "--seed", "9", "--out", str(iso_file))
    inst_file = tmp_path / "inst.txt"
    _run("sample", "--in", str(iso_file), "--beta", "1", "--k", "3",
         "--seed", "2", "--out", str(inst_file))
    text = inst_file.read_text()
    inst = load_instance(text)
    assert serialize_instance(inst) == text
    pub = load_instance(serialize_instance(inst, include_secret=False))
    assert pub.secret is None
    assert pub.images == inst.images


def test_instance_file_consistency(tmp_path):
    inst = gen_instance(2, 3, 2, 1, 2, random.Random(1))
    text = serialize_instance(inst)
    loaded = load_instance(text)
    assert loaded.params == inst.params
    assert loaded.images == inst.images
    assert loaded.secret.preimages == inst.secret.preimages


def test_load_rejects_unknown_fields():
    inst = gen_instance(2, 2, 2, 1, 2, random.Random(2))
    text = serialize_instance(inst) + "mystery: 1\n"
    with pytest.raises(ValidationError):
        load_instance(text)


def test_load_rejects_bad_header():
    with pytest.raises(ValidationError):
        load_params("not a griforge file\n")


@pytest.fixture(scope="module")
def files_of_each_kind(tmp_path_factory):
    """A valid file of each kind: an iso params file at (2,3,4), an instance sampled
    from it, the composite of it with a (3,1,4) params file, and the attack report."""
    tmp = tmp_path_factory.mktemp("kinds")
    paths = {kind: tmp / f"{kind}.txt" for kind in ("instance", "composite", "attack-report")}
    paths["params"] = _iso(tmp)
    other = _gen(tmp, "other.txt", p=3, s=1, n=4, seed=2)
    for argv in (
        ("sample", "--in", str(paths["params"]), "--beta", "1", "--k", "4", "--seed", "1",
         "--out", str(paths["instance"])),
        ("crt-combine", "--in", str(paths["params"]), "--in", str(other),
         "--out", str(paths["composite"])),
        ("attack", "--in", str(paths["instance"]), "--out", str(paths["attack-report"])),
    ):
        assert _run(*argv) == 0
    return {kind: path.read_text() for kind, path in paths.items()}


LOADERS = {"params": load_params, "instance": load_instance, "composite": load_composite}


def _stored_m(rule):
    def edit(text):
        m = int(text.split("\nm: ")[1].split("\n")[0])
        return text.replace(f"\nm: {m}\n", f"\nm: {rule(m)}\n")
    return edit


def _without_secret_f(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("secret.f: "))


REFUSED = [
    (loader, kind, None) for loader in LOADERS
    for kind in ("params", "instance", "composite", "attack-report") if kind != loader
] + [
    ("composite", "composite", _stored_m(rule))
    for rule in (lambda m: 0, lambda m: -m, lambda m: 1, lambda m: 2 * m)
] + [(kind, kind, _without_secret_f) for kind in ("params", "instance")]


@pytest.mark.parametrize(
    "loader, kind, edit", REFUSED,
    ids=[f"{loader}-reads-{kind}" for loader, kind, _ in REFUSED[:9]]
    + ["m-0", "m-negated", "m-1", "m-doubled", "params-phi_x-without-f",
       "instance-phi_x-without-f"],
)
def test_loaders_refuse_other_kinds_and_inconsistent_headers(files_of_each_kind, loader,
                                                             kind, edit):
    text = files_of_each_kind[kind]
    if edit is not None:
        assert LOADERS[loader](text)  # the unedited file loads
        text, before = edit(text), text
        assert text != before
    with pytest.raises(ValidationError):
        LOADERS[loader](text)


RING_FIELDS = [("params", key) for key in ("F", "secret.f", "secret.phi_x")] + [
    ("instance", key) for key in ("F", "secret.f", "secret.phi_x", "A.1", "secret.a.1")
] + [("composite", key) for key in
     ("component.1.F", "secret.component.1.f", "F", "secret.f")]


@pytest.mark.parametrize("kind, key", RING_FIELDS, ids=[f"{k}-{f}" for k, f in RING_FIELDS])
def test_ring_field_with_more_than_n_plus_1_entries_is_refused_unparsed(
        tmp_path, capsys, files_of_each_kind, kind, key):
    # n = 4; the entries are not integers, so the refusal comes before any is converted
    text = files_of_each_kind[kind]
    assert f"\n{key}: " in text
    text = "".join(f"{key}: {','.join(['x'] * 6)}\n" if line.startswith(f"{key}: ") else line
                   for line in text.splitlines(keepends=True))
    message = f"field {key!r}: more than n + 1 = 5 entries"
    if kind == "composite":  # no command reads a composite file
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_composite(text)
        return
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    command = "make-iso" if kind == "params" else "attack"
    assert _run(command, "--in", str(bad), "--out", str(tmp_path / "out.txt")) == 3
    assert message in capsys.readouterr().err


def test_input_one_byte_over_the_length_bound_is_refused(tmp_path, capsys):
    big = tmp_path / "big.txt"
    big.touch()
    os.truncate(big, cli._MAX_IN_BYTES + 1)  # sparse: NUL bytes that take no disk space
    assert _run("make-iso", "--in", str(big), "--out", str(tmp_path / "iso.txt")) == 3
    assert f"longer than the bound of {cli._MAX_IN_BYTES} bytes" in capsys.readouterr().err


def test_input_length_bound_covers_the_longest_instance_file():
    # the longest centered residue any accepted modulus has, and an upper bound on the
    # length of an instance file at n = MAX_N and k = MAX_K whose every entry is that long
    longest = max(len(str(p ** (MAX_MODULUS_BITS // (p.bit_length() - 1)) // 2))
                  for p in (2, 3, 5, 7, 13, 31, 61, 127, 251, 65521))
    entry = 1 + longest  # a minus sign and the digits
    n, k = cli.MAX_N, cli.MAX_K

    def line(key, count):
        return len(f"{key}: ") + count * entry + count - 1 + 1

    total = len(cli.FORMAT_HEADER) + 1 + len("kind: instance\n")
    total += sum(line(key, 1) for key in ("p", "s", "n", "beta", "k"))
    total += 2 * line("secret.f", n + 1) + line("secret.phi_x", n)
    total += sum(line(f"secret.a.{i}", n) for i in range(1, k + 1)) * 2
    assert total > 60_000_000  # p = 3, s = 4096
    assert cli._MAX_IN_BYTES >= total


@pytest.mark.parametrize("command", ["gen-params", "attack"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exits_3(tmp_path, capsys, command, target):
    out = tmp_path / "missing" / "x.txt" if target == "missing-dir" else tmp_path
    argv = ["gen-params", "--p", "2", "--s", "3", "--n", "4", "--seed", "1"]
    if command == "attack":
        pub = tmp_path / "pub.txt"
        pub.write_text(serialize_instance(gen_instance(2, 3, 4, 1, 3, random.Random(1)),
                                          include_secret=False))
        argv = ["attack", "--in", str(pub)]
    capsys.readouterr()
    assert _run(*argv, "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert f"cannot write {out}" in err and "Traceback" not in err


def test_distinguish_random_band(tmp_path, capsys):
    params = _gen(tmp_path, p=2, s=3, n=2, seed=11, extra=("--beta", "1", "--k", "2"))
    iso_file = tmp_path / "iso.txt"
    _run("make-iso", "--in", str(params), "--seed", "11", "--out", str(iso_file))
    assert _run("distinguish", "--in", str(iso_file), "--trials", "1000",
                "--strategy", "random", "--seed", "12") == 0
    out = capsys.readouterr().out
    rate = float(out.split("rate=")[1].split()[0])
    assert 0.45 <= rate <= 0.55


def test_distinguish_oracle_high(tmp_path, capsys):
    params = _gen(tmp_path, p=2, s=8, n=4, seed=13, extra=("--beta", "1", "--k", "2"))
    iso_file = tmp_path / "iso.txt"
    _run("make-iso", "--in", str(params), "--seed", "13", "--out", str(iso_file))
    assert _run("distinguish", "--in", str(iso_file), "--trials", "400",
                "--strategy", "oracle", "--seed", "14") == 0
    rate = float(capsys.readouterr().out.split("rate=")[1].split()[0])
    assert rate >= 0.99


def test_crt_combine_command(tmp_path):
    a = _gen(tmp_path, "a.txt", p=2, s=2, n=2, seed=1)
    b = _gen(tmp_path, "b.txt", p=3, s=1, n=2, seed=2)
    out = tmp_path / "comp.txt"
    assert _run("crt-combine", "--in", str(a), "--in", str(b), "--out", str(out)) == 0
    public, secret = load_composite(out.read_text())
    assert public.m == 12 and public.n == 2
    assert secret is not None and secret.m == 12

    # cross-check on load: tamper with the combined polynomial
    lines = out.read_text().splitlines()
    tampered = []
    for line in lines:
        if line.startswith("F: "):
            coeffs = line[len("F: "):].split(",")
            coeffs[0] = str(int(coeffs[0]) + 1)
            tampered.append("F: " + ",".join(coeffs))
        else:
            tampered.append(line)
    with pytest.raises(ValidationError):
        load_composite("\n".join(tampered) + "\n")


@pytest.mark.parametrize("count", [0, -1])
def test_load_composite_without_components_is_a_validation_error(count):
    text = cli._render("composite", [("n", "2"), ("m", "1"), ("components", str(count)), ("F", "0,0,1")])
    with pytest.raises(ValidationError, match="at least one"):
        load_composite(text)


def test_crt_combine_rejects_shared_prime(tmp_path, capsys):
    a = _gen(tmp_path, "a.txt", p=2, s=2, n=2, seed=1)
    b = _gen(tmp_path, "b.txt", p=2, s=3, n=2, seed=2)
    assert _run("crt-combine", "--in", str(a), "--in", str(b),
                "--out", str(tmp_path / "c.txt")) == 3
    assert "share a" in capsys.readouterr().err


def test_loaders_validate_each_ring_once(tmp_path, monkeypatch):
    iso_file = _iso(tmp_path)
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(gring, "is_irreducible_mod_p",
                        counted("irreducible", gring.is_irreducible_mod_p))
    monkeypatch.setattr(cli, "iso_from_phi_x", counted("iso", cli.iso_from_phi_x))
    pub = tmp_path / "pub.txt"
    assert _run("sample", "--in", str(iso_file), "--beta", "1", "--k", "4",
                "--seed", "1", "--public-only", "--out", str(pub)) == 0
    assert counts == {"irreducible": 2, "iso": 1}  # F, secret.f, then phi_x
    counts.clear()
    assert _run("attack", "--in", str(pub)) == 0
    assert counts == {"irreducible": 1}  # F only


def test_invariant_breach_exits_4(tmp_path, monkeypatch, capsys):
    from griforge.errors import InvariantBreach

    def broken(args):
        raise InvariantBreach("forced self-check failure")

    _gen(tmp_path)  # the parser is built once, but main looks cmd_* up on every call
    monkeypatch.setattr(cli, "cmd_gen_params", broken)
    code = _run("gen-params", "--p", "2", "--s", "1", "--n", "2",
                "--out", str(tmp_path / "x.txt"))
    assert code == 4
    assert "self-check" in capsys.readouterr().err


def test_crt_combine_inputs_do_not_carry_over(tmp_path):
    a = _gen(tmp_path, "a.txt", p=2, s=2, n=2, seed=1)
    b = _gen(tmp_path, "b.txt", p=3, s=1, n=2, seed=2)
    c = _gen(tmp_path, "c.txt", p=5, s=1, n=2, seed=3)
    ab, ac = tmp_path / "ab.txt", tmp_path / "ac.txt"
    assert _run("crt-combine", "--in", str(a), "--in", str(b), "--out", str(ab)) == 0
    assert _run("crt-combine", "--in", str(a), "--in", str(c), "--out", str(ac)) == 0
    assert [comp.p for comp in load_composite(ab.read_text())[0].components] == [2, 3]
    assert [comp.p for comp in load_composite(ac.read_text())[0].components] == [2, 5]



def _composite_text():
    """A composite file of x^2 + x + 1 mod 4 and x^2 + 1 mod 9, whose F and secret.f are 1,9,1."""
    comps = [griforge.RingCtx(griforge.Poly(f, griforge.Modulus(p, 2)))
             for f, p in (([1, 1, 1], 2), ([1, 0, 1], 3))]
    ctx = griforge.CompositeCtx.from_components(comps)
    return cli.serialize_composite(ctx, ctx)


@pytest.mark.parametrize("key", ["F", "secret.f"])
@pytest.mark.parametrize("stored, refusal", [
    ("1,9,1", None), ("37,9,1", None), ("1,9,37", None),
    ("1,9", "not the CRT combination"), ("1,10,1", "not the CRT combination"),
    ("1,9,1,0", "more than n + 1"),
])
def test_load_composite_checks_each_stored_f_against_its_components(key, stored, refusal):
    before = _composite_text()
    text = before.replace(f"\n{key}: 1,9,1\n", f"\n{key}: {stored}\n")
    assert (text == before) == (stored == "1,9,1")
    if refusal is None:  # canonicalized mod 36, the stored value is the f of the components
        public, secret = load_composite(text)
        assert public.f == secret.f == (1, 9, 1) and public.m == 36
    else:
        with pytest.raises(ValidationError, match=re.escape(f"field {key!r}: {refusal}")):
            load_composite(text)


def test_load_composite_refuses_a_partial_secret_component_set():
    text = "".join(line for line in _composite_text().splitlines(keepends=True)
                   if not line.startswith("secret.component.2.f: "))
    with pytest.raises(ValidationError, match="incomplete secret component set"):
        load_composite(text)


CLI_REFUSALS_AND_DEFAULTS = {
    "unreadable-in": (["make-iso", "--in", "{missing}"], None, 3, "cannot read"),
    "out-defaults-to-stdout": (["gen-params", "--p", "2", "--s", "1", "--n", "2", "--seed", "1"],
                               None, 0, "griforge 1\nkind: params\np: 2\n"),
    "seed-env-not-an-integer": (["gen-params", "--p", "2", "--s", "1", "--n", "2"], "seven", 3,
                                "GRIFORGE_SEED must be an integer"),
    "sample-without-beta-and-k": (["sample", "--in", "{params}"], None, 3,
                                  "beta and k must come from flags or the params file"),
    "sample-without-k": (["sample", "--in", "{params}", "--beta", "1"], None, 3,
                         "beta and k must come from flags or the params file"),
    "delta-abc": (["attack", "--delta", "abc", "--in", "{instance}"], None, 3,
                  "cannot parse delta 'abc'"),
    "delta-1/0": (["attack", "--delta", "1/0", "--in", "{instance}"], None, 3,
                  "cannot parse delta '1/0'"),
    "crt-combine-one-in": (["crt-combine", "--in", "{params}"], None, 3,
                           "crt-combine needs at least two input files"),
    "blank-line-in-a-file": (["make-iso", "--in", "{blank}", "--seed", "5"], None, 0,
                             "\nsecret.phi_x: "),
}


@pytest.mark.parametrize("case", list(CLI_REFUSALS_AND_DEFAULTS))
def test_cli_refusals_and_defaults(tmp_path, capsys, monkeypatch, files_of_each_kind, case):
    argv, seed_env, code, expected = CLI_REFUSALS_AND_DEFAULTS[case]
    params = files_of_each_kind["params"]  # no beta or k
    paths = {"missing": tmp_path / "missing.txt"}
    for name, text in (("params", params), ("instance", files_of_each_kind["instance"]),
                       ("blank", params.replace("\nn: ", "\n\n  \nn: ", 1))):
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text)
    if seed_env is None:
        monkeypatch.delenv(cli.SEED_ENV, raising=False)
    else:
        monkeypatch.setenv(cli.SEED_ENV, seed_env)
    capsys.readouterr()
    assert _run(*(arg.format(**paths) for arg in argv)) == code
    out, err = capsys.readouterr()
    assert expected in (out if code == 0 else err)
    assert "Traceback" not in err


def _readme_chain():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## CLI walkthrough")[1].split("```sh")[1].split("```")[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("griforge ")]


def test_readme_chain_in_process_matches_one_process_per_command(tmp_path, monkeypatch, capsys):
    chain = _readme_chain()
    assert [argv[0] for argv in chain] == [
        "gen-params", "make-iso", "sample", "sample", "attack", "distinguish", "distinguish",
        "gen-params", "crt-combine",
    ]
    inproc, fresh = tmp_path / "inproc", tmp_path / "fresh"
    inproc.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(inproc)
    for argv in chain:
        assert main(argv) == 0, argv
    inproc_out = capsys.readouterr().out
    src = os.path.dirname(os.path.dirname(griforge.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    fresh_out = ""
    for argv in chain:
        proc = subprocess.run([sys.executable, "-m", "griforge.cli", *argv], cwd=fresh,
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        fresh_out += proc.stdout

    def timeless(out):  # the attack report ends with its wall time
        return [line for line in out.splitlines() if not line.startswith("elapsed: ")]

    assert timeless(inproc_out) == timeless(fresh_out)
    names = sorted(f.name for f in inproc.iterdir())
    assert names == sorted(f.name for f in fresh.iterdir()) and len(names) == 7
    for name in names:
        assert (inproc / name).read_bytes() == (fresh / name).read_bytes(), name


def test_invariant_breach_survives_optimize_flag(tmp_path):
    # python -O strips assert statements; the attack's self-checks must still
    # end in exit code 4 with a message, not a traceback
    inst = gen_instance(2, 8, 6, 1, 12, random.Random(8))
    pub = tmp_path / "pub.txt"
    pub.write_text(serialize_instance(inst, include_secret=False))
    script = (
        "import sys\n"
        "import griforge.lattice\n"
        "from griforge.cli import main\n"
        "griforge.lattice.solve_in_basis = lambda v, basis: None\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(griforge.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "attack", "--in", str(pub)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "not in the attack lattice" in proc.stderr


def _huge_modulus(tmp_path):
    params = _gen(tmp_path)
    huge = tmp_path / "huge.txt"
    huge.write_text(params.read_text().replace("p: 2\ns: 3\n", "p: 3\ns: 1000000000\n"))
    return ("make-iso", "--in", str(huge), "--seed", "5", "--out", str(tmp_path / "iso.txt")), "too large"


def _huge_n(tmp_path):
    return ("gen-params", "--p", "2", "--s", "2", "--n", "100000",
            "--out", str(tmp_path / "p.txt")), "n <= 64"


def _huge_k_flag(tmp_path):
    return ("sample", "--in", str(_iso(tmp_path)), "--beta", "1", "--k", "100000000",
            "--seed", "1", "--out", str(tmp_path / "i.txt")), "k <= 256"


def _huge_k_file(tmp_path):
    inst = gen_instance(2, 3, 4, 1, 3, random.Random(1))
    text = serialize_instance(inst, include_secret=False)
    assert "\nk: 3\n" in text
    huge = tmp_path / "huge.txt"
    huge.write_text(text.replace("\nk: 3\n", "\nk: 100000000\n"))
    return ("attack", "--in", str(huge)), "k <= 256"


def _huge_trials(tmp_path):
    return ("distinguish", "--in", str(_iso(tmp_path)), "--beta", "1", "--k", "2",
            "--trials", "1000000000000", "--seed", "1"), "trials <= 100000"


def _huge_delta(tmp_path):
    inst = gen_instance(2, 8, 6, 1, 12, random.Random(8))
    pub = tmp_path / "pub.txt"
    pub.write_text(serialize_instance(inst, include_secret=False))
    return ("attack", "--in", str(pub), "--delta", "1e10000000"), "exponent"


def _huge_nbits_flag(tmp_path):
    return ("gen-params", "--p", "1000003", "--s", "1", "--n", "64", "--seed", "1",
            "--out", str(tmp_path / "p.txt")), "n * bits(p) <= 256"


def _huge_nbits_file(tmp_path):
    text = _gen(tmp_path).read_text()
    assert "p: 2\ns: 3\nn: 4\n" in text
    text = text.replace("p: 2\ns: 3\nn: 4\n", "p: 1000003\ns: 1\nn: 64\n")
    deg64 = ",".join(["1"] + ["0"] * 63 + ["1"])  # x^64 + 1
    lines = [f"{line.split(': ')[0]}: {deg64}" if line.startswith(("F:", "secret.f:")) else line
             for line in text.splitlines()]
    huge = tmp_path / "huge.txt"
    huge.write_text("\n".join(lines) + "\n")
    return ("make-iso", "--in", str(huge), "--seed", "5", "--out", str(tmp_path / "iso.txt")), \
        "n * bits(p) <= 256"


@pytest.mark.parametrize(
    "case",
    [_huge_modulus, _huge_n, _huge_k_flag, _huge_k_file, _huge_trials, _huge_delta,
     _huge_nbits_flag, _huge_nbits_file],
    ids=["modulus", "gen-params-n", "sample-k", "instance-k", "distinguish-trials",
         "attack-delta", "gen-params-nbits", "params-file-nbits"],
)
def test_oversized_modulus_rejected_quickly(tmp_path, capsys, case):
    argv, bound = case(tmp_path)
    capsys.readouterr()
    start = time.perf_counter()
    code = _run(*argv)
    assert code == 3 and time.perf_counter() - start < 1.0
    assert bound in capsys.readouterr().err


@pytest.mark.parametrize(
    "s,beta", [("1100", "1"), ("4000", "1"), ("1100", str(2**1097))],
    ids=["1100", "4000", "1100-beta-2^1097"],
)
def test_attack_past_float_range(tmp_path, capsys, s, beta):
    # the Gaussian heuristic or its square leaves the float range: the report records inf;
    # so does the shortness ratio when beta itself is past the float range
    params = _gen(tmp_path, p=2, s=s, n=2, seed=1, extra=("--beta", "1", "--k", "4"))
    iso_file, pub_file, report_file = (tmp_path / name for name in ("i.txt", "pub.txt", "r.txt"))
    assert _run("make-iso", "--in", str(params), "--seed", "1", "--out", str(iso_file)) == 0
    assert _run("sample", "--in", str(iso_file), "--public-only", "--beta", beta, "--seed", "1",
                "--out", str(pub_file)) == 0
    capsys.readouterr()
    assert _run("attack", "--in", str(pub_file), "--out", str(report_file)) == 0
    text = report_file.read_text()
    assert ("gaussian_heuristic: inf\n" in text) == (s == "4000")
    assert ("shortness_ratio: inf\n" in text) == (beta != "1")
    assert ("(target length inf, ratio inf)" in capsys.readouterr().out) == (beta != "1")


def test_gen_params_at_the_cost_bound_finishes(tmp_path):
    # n * bits(p) = 256 is the largest accepted; rejection sampling runs about n
    # irreducibility tests of at most n/2 * log2(p) products and n/2 gcds each
    start = time.perf_counter()
    _gen(tmp_path, p=13, s=1, n=64, seed=1)
    assert time.perf_counter() - start < 10.0


def test_make_iso_at_the_cost_bound_finishes(tmp_path):
    # p = 251, n = 32 is at the bound too; root finding in F_p^n dominates
    params = _gen(tmp_path, p=251, s=1, n=32, seed=1)
    start = time.perf_counter()
    assert _run("make-iso", "--in", str(params), "--seed", "1",
                "--out", str(tmp_path / "iso.txt")) == 0
    assert time.perf_counter() - start < 10.0


def test_sample_requires_iso(tmp_path, capsys):
    params = _gen(tmp_path)
    code = _run("sample", "--in", str(params), "--beta", "1", "--k", "2",
                "--seed", "1", "--out", str(tmp_path / "i.txt"))
    assert code == 3
    assert "make-iso" in capsys.readouterr().err
