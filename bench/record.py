#!/usr/bin/env python3
"""Record the reference data kept next to the benchmark.

    python3 bench/record.py

Writes two files into this directory:

- ``digests.json``: for every workload, the sha256 of each op's
  deterministic output in one pass at the default seed. ``run.py``
  compares against it on the default seed, so a change that alters an
  output (a reduced basis, a candidate, ``phi_x``, a CLI file) fails.
- ``BASELINE.json``: traced timings of single calls, taken from the
  spans: ``find_root`` on the keygen cells, Hensel lifting plus
  ``iso_from_phi_x`` at (2,32,24), ``lll_reduce`` inside ``run_attack``
  on five attack cells, and 1000 oracle distinguisher trials. Later
  changes to those layers cite their before/after against it.

Re-record digests only in a change whose purpose is to alter outputs.
"""

import json
import os
import platform
import random
import statistics
import sys

from run import DEFAULT_SEED, DIGESTS, HERE, OUT, Tally, import_griforge, measure
from tracer import Tracer
from workloads import WORKLOADS, derive

REPEATS = 3
KEYGEN_CELLS = [(2, 8, 6), (2, 8, 16), (3, 4, 12), (7, 2, 16), (2, 32, 24)]
LLL_CELLS = [(2, 8, 6, 1, 12), (2, 8, 6, 64, 12), (2, 16, 8, 1, 20), (3, 10, 8, 1, 24),
             (2, 8, 6, 1, 40)]
ORACLE_CELL = (2, 8, 6, 1, 12)
ORACLE_TRIALS = 1000


def record_digests() -> dict:
    digests = {}
    for name in WORKLOADS:
        wl = WORKLOADS[name](import_griforge(), DEFAULT_SEED, str(OUT))
        tally = Tally()
        measure(wl, 0, tally)
        if tally.problems:
            raise SystemExit(f"cannot record digests: {tally.problems}")
        digests[name] = [tally.fingerprints[i] for i in range(len(wl.ops))]
    return digests


def span_seconds(tracer: Tracer, op_id: int, *names) -> float:
    """Total duration of the named spans inside one op, children included."""
    return sum(s[2] - s[1] for s in tracer.spans if s[4] == op_id and s[0] in names) / 1e9


def record_baseline() -> dict:
    gf = import_griforge()
    tracer = Tracer(gf)
    op_id = 0

    def traced(call):
        """Run call() as one traced op; names must be looked up inside it."""
        nonlocal op_id
        op_id += 1
        with tracer.op(op_id):
            call()
        return op_id

    def summary(cell, values):
        return {"cell": ",".join(map(str, cell)), "seconds": values,
                "median": statistics.median(values)}

    find_root, lift = [], []
    for p, s, n in KEYGEN_CELLS:
        ids = [traced(lambda r=r: gf.gen_instance(
                   p, s, n, 1, 2, random.Random(derive(DEFAULT_SEED, "baseline", p, s, n, r))))
               for r in range(REPEATS)]
        find_root.append(summary((p, s, n), [span_seconds(tracer, i, "ffield.find_root")
                                             for i in ids]))
        if (p, s, n) == (2, 32, 24):
            lift.append(summary((p, s, n), [
                span_seconds(tracer, i, "gring.hensel_iterates", "gring.iso_from_phi_x")
                for i in ids]))
    lll = []
    for cell in LLL_CELLS:
        inst = gf.gen_instance(*cell, random.Random(derive(DEFAULT_SEED, "baseline", *cell)))
        i = traced(lambda: gf.run_attack(inst.public_only()))
        lll.append({"cell": ",".join(map(str, cell)),
                    "seconds": span_seconds(tracer, i, "lattice.lll_reduce")})
    inst = gf.gen_instance(*ORACLE_CELL, random.Random(derive(DEFAULT_SEED, "baseline-oracle")))
    ids = [traced(lambda r=r: gf.run_distinguisher_experiment(
               inst.params, gf.oracle_strategy(inst.secret, inst.params.beta), ORACLE_TRIALS,
               random.Random(derive(DEFAULT_SEED, "baseline-oracle", r)), instance=inst))
           for r in range(REPEATS)]
    oracle = summary(ORACLE_CELL, [span_seconds(tracer, i, "gri.run_distinguisher_experiment")
                                   for i in ids])
    return {
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "find_root_s": find_root,
        "hensel_plus_iso_from_phi_x_s": lift,
        "lll_reduce_s": lll,
        f"oracle_trials_{ORACLE_TRIALS}_s": oracle,
    }


def main() -> int:
    OUT.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(record_digests(), indent=1) + "\n")
    (HERE / "BASELINE.json").write_text(json.dumps(record_baseline(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
