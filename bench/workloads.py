"""The four benchmark workloads: inputs, ops and output checks.

Every input is derived from the workload seed. A workload's ``ops`` are
one pass: a fixed list that a run repeats, op for op on the same
inputs, so every run measures the same mix whatever its length and
each op's time can be taken as a median over passes. An op's ``run``
is a zero-argument callable returning its output; ``check`` returns a
problem description, or None when the output is right, and
``fingerprint`` gives the deterministic part of an output as bytes for
the recorded digests.
"""

import contextlib
import hashlib
import io
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Callable


def derive(*parts) -> int:
    """A 64-bit seed determined by the parts and independent across them."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class Op:
    cell: tuple  # (p, s, n, beta, k)
    run: Callable[[], object]
    index: int  # position in the pass


class Workload:
    name = ""

    def __init__(self, gf, seed: int, workdir: str):
        self.gf = gf
        self.seed = seed
        self.workdir = workdir
        self.ops: list[Op] = []

    def check(self, op: Op, out) -> str | None:
        raise NotImplementedError

    def fingerprint(self, out) -> bytes:
        raise NotImplementedError

    def hit(self, op: Op, out) -> bool | None:
        """For a weak-cell attack, whether it found some +-b_j; else None."""
        return None

    def written(self, out) -> int:
        """Bytes of files the op wrote."""
        return 0


def secret_columns(preimages, n: int) -> set:
    """The vectors +-b_j, b_j holding the j-th coefficient of every preimage."""
    cols = set()
    for j in range(n):
        col = tuple(pre[j] for pre in preimages)
        cols.add(col)
        cols.add(tuple(-x for x in col))
    return cols


class Attack(Workload):
    """run_attack on public instances generated during set-up."""

    name = "attack"
    # The mix of 9, 4, 2 and 1 instances, drawn twice: the cost of one
    # attack varies by up to 2x between instances of a cell, and the
    # median op sits near the top of the weak cell's spread, so one draw
    # leaves the figures at the mercy of a few instances.
    PASS = ([(2, 8, 6, 1, 12)] * 9 + [(2, 8, 6, 64, 12)] * 4 + [(2, 16, 8, 1, 20)] * 2
            + [(3, 10, 8, 1, 24)]) * 2

    def __init__(self, gf, seed, workdir):
        super().__init__(gf, seed, workdir)
        self.instances = [
            gf.gen_instance(*cell, random.Random(derive(seed, self.name, i)))
            for i, cell in enumerate(self.PASS)
        ]
        self._lattice_hnf = {}
        self.ops = [
            Op(cell, lambda inst=inst: gf.run_attack(inst.public_only()), i)
            for i, (cell, inst) in enumerate(zip(self.PASS, self.instances))
        ]

    def check(self, op, report):
        gf = self.gf
        i = op.index
        inst = self.instances[i]
        if i not in self._lattice_hnf:
            rows = gf.build_attack_lattice(inst.images, inst.dst.modulus)
            self._lattice_hnf[i] = gf.hnf_row_basis(rows)[0]
        if gf.hnf_row_basis(report.basis)[0] != self._lattice_hnf[i]:
            return "reduced basis spans a different lattice"
        bound_sq = (report.gh_factor * report.gaussian_heuristic) ** 2
        for cand in report.candidates:
            if max(abs(x) for x in cand.vector) > report.beta:
                return f"candidate {cand.vector} exceeds beta={report.beta}"
            if sum(x * x for x in cand.vector) != cand.norm_sq or cand.norm_sq > bound_sq:
                return f"candidate {cand.vector} is not below the heuristic bound"
        return None

    def hit(self, op, report):
        if op.cell[3] != 1:
            return None
        inst = self.instances[op.index]
        cols = secret_columns([pre.coeff_vector() for pre in inst.secret.preimages], inst.params.n)
        return any(cand.vector in cols for cand in report.candidates)

    def fingerprint(self, report):
        cands = [(c.vector, c.norm_sq, c.combo) for c in report.candidates]
        return repr((report.basis, cands)).encode()


class Keygen(Workload):
    """gen_instance on the cells whose cost is root finding and lifting."""

    name = "keygen"
    PASS = [(2, 8, 6, 1, 2), (2, 8, 16, 1, 2), (3, 4, 12, 1, 2), (7, 2, 16, 1, 2), (2, 32, 24, 1, 2)]

    def __init__(self, gf, seed, workdir):
        super().__init__(gf, seed, workdir)
        self.ops = [
            Op(cell, lambda cell=cell, i=i: gf.gen_instance(
                *cell, random.Random(derive(seed, self.name, i))), i)
            for i, cell in enumerate(self.PASS)
        ]

    def check(self, op, inst):
        gf = self.gf
        secret = inst.secret
        iso = secret.iso
        if not gf.eval_poly(secret.src.f, iso.phi_x).is_zero:
            return "phi_x is not a root of f"
        a = secret.src.random_elem(random.Random(derive(self.seed, "keygen-check", op.index)))
        if iso.apply_inverse(iso.apply(a)) != a:
            return "apply_inverse(apply(a)) != a"
        if tuple(iso.apply(pre) for pre in secret.preimages) != inst.images:
            return "images differ from apply(preimages)"
        return None

    def fingerprint(self, inst):
        secret = inst.secret
        return repr((
            secret.src.f.coeffs,
            inst.dst.f.coeffs,
            secret.iso.phi_x.rep.coeffs,
            [a.rep.coeffs for a in secret.preimages],
            [a.rep.coeffs for a in inst.images],
        )).encode()


class Distinguish(Workload):
    """Oracle distinguisher experiments on two fixed instances."""

    name = "distinguish"
    TRIALS = 500
    # The larger cell twice per pass, so the median op is one of its ops
    # and not the midpoint between two clusters.
    PASS = [(2, 32, 24, 1, 12), (2, 8, 6, 1, 12), (2, 32, 24, 1, 12)]

    def __init__(self, gf, seed, workdir):
        super().__init__(gf, seed, workdir)
        self.instances = {
            cell: gf.gen_instance(*cell, random.Random(derive(seed, self.name, cell)))
            for cell in dict.fromkeys(self.PASS)
        }
        self.ops = [Op(cell, lambda cell=cell, i=i: self._experiment(cell, i), i)
                    for i, cell in enumerate(self.PASS)]

    def _experiment(self, cell, i):
        gf = self.gf
        inst = self.instances[cell]
        strategy = gf.oracle_strategy(inst.secret, inst.params.beta)
        rng = random.Random(derive(self.seed, self.name, i))
        return gf.run_distinguisher_experiment(inst.params, strategy, self.TRIALS, rng, instance=inst)

    def check(self, op, report):
        if report.trials != self.TRIALS or report.rate < 0.99:
            return f"oracle rate {report.rate} over {report.trials} trials is below 0.99"
        return None

    def fingerprint(self, report):
        return repr((report.trials, report.successes)).encode()


class CliChain(Workload):
    """The README command chain through griforge.cli.main, with real files."""

    name = "cli-chain"
    CELL = (2, 8, 6, 1, 12)
    # Chains per pass, each with its own seeds: the attack inside a chain
    # costs up to 3x more on one instance than on another, and the run's
    # figures should not hang on a few of them.
    CHAINS = 36
    FILES = ("params.txt", "iso.txt", "instance.txt", "public.txt", "report.txt",
             "params3.txt", "composite.txt")

    def __init__(self, gf, seed, workdir):
        super().__init__(gf, seed, workdir)
        self.first_files = {}
        self.ops = [Op(self.CELL, lambda i=i: self._chain(i), i) for i in range(self.CHAINS)]

    def _chain(self, chain):
        p, s, n, beta, k = self.CELL
        a, b, c, d, e = (derive(self.seed, self.name, chain, step) % 2**32 for step in range(5))
        with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
            def f(name):
                return os.path.join(tmp, name)

            argvs = [
                ["gen-params", "--p", str(p), "--s", str(s), "--n", str(n), "--beta", str(beta),
                 "--k", str(k), "--seed", str(a), "--out", f("params.txt")],
                ["make-iso", "--in", f("params.txt"), "--seed", str(b), "--out", f("iso.txt")],
                ["sample", "--in", f("iso.txt"), "--seed", str(c), "--out", f("instance.txt")],
                ["sample", "--in", f("iso.txt"), "--seed", str(c), "--public-only",
                 "--out", f("public.txt")],
                ["attack", "--in", f("public.txt"), "--out", f("report.txt")],
                ["distinguish", "--in", f("iso.txt"), "--trials", "200", "--strategy", "oracle",
                 "--seed", str(d)],
                ["gen-params", "--p", "3", "--s", "1", "--n", str(n), "--seed", str(e),
                 "--out", f("params3.txt")],
                ["crt-combine", "--in", f("params.txt"), "--in", f("params3.txt"),
                 "--out", f("composite.txt")],
            ]
            codes = []
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in argvs:
                    try:
                        codes.append(self.gf.cli.main(argv))
                    except SystemExit as exc:  # argparse rejects a command line
                        codes.append(exc.code)
            files = {}
            for name in self.FILES:
                if os.path.exists(f(name)):
                    with open(f(name), "rb") as fh:
                        files[name] = fh.read()
        return codes, files

    def check(self, op, out):
        codes, files = out
        if any(code != 0 for code in codes):
            return f"exit codes {codes}"
        if set(files) != set(self.FILES):
            return f"missing files {sorted(set(self.FILES) - set(files))}"
        public = files["public.txt"].decode()
        if any(line.startswith("secret.") for line in public.splitlines()):
            return "public file carries secret fields"
        if self.first_files.setdefault(op.index, files) != files:
            return "same seeds wrote different files"
        return None

    def hit(self, op, out):
        files = out[1]
        fields = parse_fields(files["instance.txt"])
        n, k = int(fields["n"]), int(fields["k"])
        pre = []
        for i in range(1, k + 1):
            cs = [int(x) for x in fields[f"secret.a.{i}"].split(",")]
            pre.append(cs + [0] * (n - len(cs)))
        cols = secret_columns(pre, n)
        report = parse_fields(files["report.txt"])
        cands = [tuple(int(x) for x in report[f"candidate.{i}"].split(","))
                 for i in range(1, int(report["candidates"]) + 1)]
        return any(c in cols for c in cands)

    def written(self, out):
        return sum(len(data) for data in out[1].values())

    def fingerprint(self, out):
        codes, files = out
        return repr((codes, sorted(files.items()))).encode()


def parse_fields(data: bytes) -> dict:
    """The `key: value` lines of a griforge text file."""
    fields = {}
    for line in data.decode().splitlines()[1:]:
        if ": " in line:
            key, value = line.split(": ", 1)
            fields[key] = value
    return fields


WORKLOADS = {w.name: w for w in (Attack, Keygen, Distinguish, CliChain)}
