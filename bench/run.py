#!/usr/bin/env python3
"""griforge benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload cli-chain --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all          # every workload, one by one

One process, one thread, one closed-loop caller: each op starts when
the previous one and its output check have finished. The benchmark
imports griforge from ``src/`` next to this directory, derives every
input from --seed, and repeats passes of the workload's op list, on
the same inputs, until --seconds have elapsed (the first pass always
runs whole). A fixed reference kernel runs between consecutive ops, and
each op's time is scaled to the machine speed at which that kernel
takes reference.REF_S; an op's figure is the median of its scaled
times over the passes. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import importlib
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
SETUPS = 5  # set-ups per run; setup_s is their median
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"


def import_griforge():
    """A fresh import of griforge from this checkout's src/ directory."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "griforge" or m.startswith("griforge.")]:
        del sys.modules[name]
    gf = importlib.import_module("griforge")
    importlib.import_module("griforge.cli")
    if Path(gf.__file__).resolve().parent != src / "griforge":
        raise ImportError(f"griforge was imported from {gf.__file__}, not from {src}")
    return gf


def set_up(name: str, seed: int, warm_index: int):
    """Import, generate inputs and run one untimed warm-up op.

    The warm-up is op `warm_index` of the pass, so that repeated set-ups
    warm up on different ops and their median does not hang on one.
    Returns the workload, the seconds this took, and the warm-up op's
    output problem (None when it checked out).
    """
    start = time.perf_counter()
    gf = import_griforge()
    wl = WORKLOADS[name](gf, seed, str(OUT))
    warm = wl.ops[warm_index % len(wl.ops)]
    out = warm.run()
    elapsed = time.perf_counter() - start
    return wl, elapsed, wl.check(warm, out)


class Tally:
    """What a run attempted, what failed, and the times of ops that passed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.times: dict[int, list[float]] = {}  # op index -> untraced times
        self.scaled: dict[int, list[float]] = {}  # op index -> times at reference speed
        self.ref_times: list[float] = []
        self.traced: list[float] = []
        self.untraced: list[float] = []  # the untraced twins of `traced`
        self.weak = 0
        self.hits = 0
        self.written = 0
        self.fingerprints: dict[int, str] = {}

    def reference(self) -> float:
        """Run the reference kernel once; returns its seconds."""
        self.ref_times.append(reference.seconds())
        return self.ref_times[-1]

    def scale(self, index: int, seconds: float, ref_before: float, ref_after: float):
        """Record an op's time at the speed of the kernel runs on either side of it."""
        speed = reference.REF_S / ((ref_before + ref_after) / 2)
        self.scaled.setdefault(index, []).append(seconds * speed)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def attempt(self, wl, op, run):
        """Run one op through `run` (which returns output and seconds) and check it."""
        self.attempted += 1
        try:
            out, seconds = run(op)
            problem = wl.check(op, out)
        except Exception as exc:  # any error is a failed op; the run goes on
            problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            self.problems.append(f"{wl.name} op {op.index} cell={op.cell}: {problem}")
            return None, None
        return out, seconds


def untraced(op):
    start = time.perf_counter()
    out = op.run()
    return out, time.perf_counter() - start


def measure(wl, seconds: float, tally: Tally, tracer: Tracer | None = None) -> float:
    """Run passes until `seconds` have elapsed; returns the passes run.

    The first pass always runs whole; a later one stops at the deadline,
    so the count is a fraction. The reference kernel runs before every
    op and once after the last. With a tracer, each op runs untraced and
    then traced on the same inputs, so the traced time has an untraced
    twin.
    """
    start = time.perf_counter()
    n = len(wl.ops)
    ran = 0
    op_id = 0
    pending = None  # (op index, seconds, kernel seconds before it) awaiting the next kernel run
    for op in itertools.cycle(wl.ops):
        if ran >= n:
            if tracer is not None:
                tracer.keep = False  # spans of the first pass are enough to inspect
            if time.perf_counter() - start >= seconds:
                break
        ref = tally.reference()
        if pending is not None:
            tally.scale(*pending, ref)
            pending = None
        first_pass = ran < n
        ran += 1
        out, dt = tally.attempt(wl, op, untraced)
        if out is None:
            continue
        fingerprint = wl.fingerprint(out)
        if first_pass:
            tally.fingerprints[op.index] = hashlib.sha256(fingerprint).hexdigest()
        if tracer is not None:

            def traced(op, op_id=op_id):
                with tracer.op(op_id, workload=wl.name, cell=op.cell, index=op.index) as span:
                    out = op.run()
                return out, (span[2] - span[1]) / 1e9

            op_id += 1
            out, t_dt = tally.attempt(wl, op, traced)
            if out is None:
                continue
            if wl.fingerprint(out) != fingerprint:
                tally.problems.append(f"{wl.name} op {op.index}: tracing changed the output")
                continue
            tally.traced.append(t_dt)
            tally.untraced.append(dt)
            tally.written += wl.written(out)
        tally.times.setdefault(op.index, []).append(dt)
        pending = (op.index, dt, ref)
        hit = wl.hit(op, out)
        if hit is not None:
            tally.weak += 1
            tally.hits += hit
    if pending is not None:
        tally.scale(*pending, tally.reference())
    return ran / n if n else 0.0


def compare_digests(name: str, tally: Tally):
    """On the default seed, pass-0 outputs must match the recorded digests."""
    recorded = json.loads(DIGESTS.read_text())[name]
    for idx, digest in sorted(tally.fingerprints.items()):
        if recorded[idx] != digest:
            tally.problems.append(f"{name} op {idx}: output digest differs from the recorded one")


def end_to_end(tally: Tally, setups: list[float]) -> dict:
    """Each op's time is the median of its times at reference speed.

    The machine's speed moves by up to half, in spells from seconds to
    minutes, when other tenants load it. Scaling each op by the reference
    kernel run around it takes out the spells; the median over the whole
    run takes out what the scaling misses.
    """
    times = [statistics.median(ts) for ts in tally.scaled.values()]
    return {
        "ops_per_s_ref": (len(times) / sum(times), "1/s"),
        "op_p50_ms_ref": (statistics.median(times) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def wall_clock(tally: Tally) -> str:
    """The unscaled figures, for people: wall-time ops/s and p50, and the kernel's time."""
    times = [statistics.median(ts) for ts in tally.times.values()]
    return (f"wall clock: ops_per_s={len(times) / sum(times):.6g} "
            f"op_p50_ms={statistics.median(times) * 1e3:.6g} "
            f"reference kernel p50={statistics.median(tally.ref_times) * 1e3:.4g} ms "
            f"(REF_S={reference.REF_S * 1e3:g} ms)")


def per_layer(tracer: Tracer, tally: Tally, passes: float) -> dict:
    """Per-pass self times and counts, taken from the spans."""

    def s(*names):
        return (sum(tracer.self_ns[n] for n in names) / 1e9 / passes, "s")

    def c(*names):
        return (sum(tracer.calls[n] for n in names) / passes, "count")

    attacks = tracer.results["lattice.run_attack"]
    candidates = sum(a["candidates"] for a in attacks)
    rows = sum(a["rows"] for a in attacks)
    sampled = tracer.calls["poly.random_monic_irreducible"]
    tested = tracer.edges["poly.random_monic_irreducible", "poly.is_irreducible_mod_p"]
    cli_cmds = ("gen_params", "make_iso", "sample", "attack", "distinguish", "crt_combine")
    metrics = {
        "lattice.lll_reduce_s": s("lattice.lll_reduce"),
        "lattice.hnf_row_basis_s": s("lattice.hnf_row_basis"),
        "lattice.hnf_row_basis_calls": c("lattice.hnf_row_basis"),
        "lattice.build_attack_lattice_s": s("lattice.build_attack_lattice"),
        "lattice.run_attack_s": s("lattice.run_attack"),
        "lattice.extract_short_vectors_s": s("lattice.extract_short_vectors"),
        "lattice.solve_in_basis_s": s("lattice.solve_in_basis"),
        "lattice.solve_in_basis_calls": c("lattice.solve_in_basis"),
        "lattice.candidates": (candidates / passes, "count"),
        "lattice.candidate_yield": (candidates / rows if rows else 0.0, "ratio"),
        "lattice.recovery_rank_sum": (sum(a["rank"] for a in attacks) / passes, "count"),
        "lattice.basis_max_bits": (max((a["max_bits"] for a in attacks), default=0), "bits"),
        "lattice.hit_rate": (tally.hits / tally.weak if tally.weak else 0.0, "ratio"),
        "ffield.find_root_s": s("ffield.find_root"),
        "ffield.find_root_calls": c("ffield.find_root"),
        "poly.is_irreducible_mod_p_s": s("poly.is_irreducible_mod_p"),
        "poly.is_irreducible_mod_p_calls": c("poly.is_irreducible_mod_p"),
        "poly.irreducible_accept_ratio": (sampled / tested if tested else 0.0, "ratio"),
        "gring.hensel_iterates_s": s("gring.hensel_iterates"),
        "gring.iso_from_phi_x_s": s("gring.iso_from_phi_x"),
        "linalg.mat_inv_mod_s": s("linalg.mat_inv_mod"),
        "gring.apply_s": s("gring.apply", "gring.apply_inverse"),
        "gring.apply_calls": c("gring.apply", "gring.apply_inverse"),
        "linalg.vec_mat_calls": (tracer.counts["linalg.vec_mat"] / passes, "count"),
        "gring.mul_calls": (tracer.counts["gring.mul"] / passes, "count"),
        "gri.challenge_from_instance_s": s("gri.challenge_from_instance"),
        "gri.strategy_s": s("gri.strategy"),
        "gri.run_distinguisher_experiment_s": s("gri.run_distinguisher_experiment"),
        "gri.gen_instance_s": s("gri.gen_instance"),
        **{f"cli.{cmd}_s": s(f"cli.cmd_{cmd}") for cmd in cli_cmds},
        "cli.load_s": s("cli.load_params", "cli.load_instance", "cli.load_composite"),
        "cli.serialize_s": s("cli.serialize_params", "cli.serialize_instance",
                             "cli.serialize_composite", "cli.serialize_attack_report"),
        "cli.bytes_written": (tally.written / passes, "B"),
        "crt.from_components_s": s("crt.from_components"),
        "crt.crt_combine_polys_s": s("crt.crt_combine_polys"),
        "trace.overhead_ratio": (sum(tally.traced) / sum(tally.untraced), "ratio"),
    }
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    setups = []
    for i in range(1 if trace else SETUPS):
        wl, elapsed, problem = set_up(name, seed, i)
        setups.append(elapsed)
    if problem is not None:
        tally.attempted += 1
        tally.problems.append(f"{name} warm-up op: {problem}")
    tracer = Tracer(wl.gf) if trace else None
    passes = measure(wl, seconds, tally, tracer)
    if seed == DEFAULT_SEED:
        compare_digests(name, tally)
    correct = tally.failed == 0 and bool(tally.times)
    if trace and tracer.unaccounted_ns != 0:
        tally.problems.append(f"span self times miss the op time by {tracer.unaccounted_ns} ns")
        correct = False

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    samples = sum(len(ts) for ts in tally.times.values())
    print(f"workload={name} seed={seed} passes={passes:.3g} timed_ops={samples} "
          f"attempted={tally.attempted} failed={tally.failed} "
          f"fail_rate={tally.failed / tally.attempted}")
    if tally.weak:
        print(f"hit_rate={tally.hits / tally.weak} over {tally.weak} weak-cell attacks")
    if not tally.times:
        metrics = {}
    elif trace:
        metrics = per_layer(tracer, tally, passes)
        spans_path = OUT / f"spans-{name}-{seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans of the first pass written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(tally, setups)
        print(wall_clock(tally))
    for key, (value, unit) in metrics.items():
        extra = f" (n={samples} samples of {len(tally.times)} ops)" if key == "op_p50_ms_ref" else ""
        print(f"  {key} = {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so each reports its own peak RSS."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_griforge()
    except ImportError as exc:
        print(f"error: cannot import griforge from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 3
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
