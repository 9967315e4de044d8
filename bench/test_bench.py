"""Self-test of the benchmark: one op per workload at its smallest cell.

    python3 -m pytest bench/test_bench.py -q
"""

import dataclasses
import json
from pathlib import Path

import pytest

import reference
import run
from tracer import Tracer
from workloads import WORKLOADS, Attack, CliChain, Distinguish, Keygen

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SMALLEST = {
    Attack: [(2, 8, 6, 1, 12)],
    Keygen: [(2, 8, 6, 1, 2)],
    Distinguish: [(2, 8, 6, 1, 12)],
}
SEED = 1  # not the default seed: the digests cover full passes only


@pytest.fixture(autouse=True)
def one_small_op(monkeypatch):
    for cls, cells in SMALLEST.items():
        monkeypatch.setattr(cls, "PASS", cells)
    monkeypatch.setattr(CliChain, "CHAINS", 1)
    monkeypatch.setattr(run, "SETUPS", 1)


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_prints_with_its_unit(name, trace, kind, capsys):
    assert run.run(name, SEED, 0, trace) == 0
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _tamper_attack(report):
    basis = [list(row) for row in report.basis]
    basis[0] = [2 * x for x in basis[0]]
    return dataclasses.replace(report, basis=tuple(map(tuple, basis)))


def _tamper_keygen(inst):
    images = (inst.images[0] + inst.images[0],) + inst.images[1:]
    return dataclasses.replace(inst, images=images)


def _tamper_distinguish(report):
    return dataclasses.replace(report, successes=report.trials // 2, rate=0.5)


def _tamper_cli(out):
    codes, files = out
    files = dict(files, **{"public.txt": files["public.txt"] + b"secret.f: 1,0,1\n"})
    return codes, files


TAMPER = {
    "attack": _tamper_attack,
    "keygen": _tamper_keygen,
    "distinguish": _tamper_distinguish,
    "cli-chain": _tamper_cli,
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tampered_output_counts_as_failed(name):
    wl = WORKLOADS[name](run.import_griforge(), SEED, str(run.OUT))
    for op in wl.ops:
        op.run = lambda original=op.run: TAMPER[name](original())
    tally = run.Tally()
    run.measure(wl, 0, tally)
    assert tally.attempted == len(wl.ops) and tally.failed == tally.attempted
    assert not tally.times


def test_op_times_are_scaled_to_reference_speed(monkeypatch):
    monkeypatch.setattr(reference, "seconds", lambda: 2 * reference.REF_S)
    wl = Distinguish(run.import_griforge(), SEED, str(run.OUT))
    tally = run.Tally()
    run.measure(wl, 0, tally)
    assert tally.ref_times == [2 * reference.REF_S] * (len(wl.ops) + 1)
    assert tally.times and all(tally.scaled[i] == [t / 2 for t in ts] for i, ts in tally.times.items())


def test_tracer_restores_every_wrapped_name():
    gf = run.import_griforge()
    original_lll = gf.lattice.lll_reduce
    wl = Attack(gf, SEED, str(run.OUT))
    tracer = Tracer(gf)
    originals = tracer.originals()
    bound = {(owner.__name__, attr) for owner, attr, _ in originals}
    assert {("griforge.ffield", "find_root"), ("griforge.gring", "find_root"),
            ("griforge.lattice", "run_attack"), ("griforge.cli", "run_attack"),
            ("griforge.gri", "build_ring_iso"), ("griforge.crt", "build_ring_iso"),
            ("griforge.cli", "iso_from_phi_x"), ("griforge.poly", "random_monic_irreducible"),
            ("griforge.gri", "random_monic_irreducible"), ("griforge.cli", "random_monic_irreducible"),
            ("griforge.ffield", "is_irreducible_mod_p"), ("RingElem", "__mul__")} <= bound
    tally = run.Tally()
    run.measure(wl, 0, tally, tracer)
    assert tally.failed == 0 and tracer.unaccounted_ns == 0
    names = {span[0] for span in tracer.spans}
    assert {"op", "lattice.run_attack", "lattice.lll_reduce", "lattice.hnf_row_basis"} <= names
    assert tracer.calls["op"] == len(wl.ops) and tracer.self_ns["lattice.lll_reduce"] > 0
    assert gf.lattice.lll_reduce is original_lll
    for owner, attr, original in originals:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner.__name__}.{attr} was not restored"
