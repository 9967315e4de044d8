"""Command-line front end and the text serialization it speaks.

Files are UTF-8, one `key: value` field per line after a version header,
with polynomials rendered as ascending comma-separated centered
coefficients. `_ints_text`/`_parse_ints` are the one writer and reader
of that list format, for polynomials, the combined composite polynomial
and attack-report rows. A composite ring is rebuilt from its component
fields; its stored combined polynomial is only checked against them.
Secret material always lives under keys prefixed `secret.`, so public
exports can be checked mechanically.

Params and instance files share one ring-pair header (p, s, n, beta,
k, F, secret.f, secret.phi_x), written by `_pair_text` and read by
`_take_pair`; `_take` reads every field, so a bad one is a
`ValidationError`.

Exit codes: 0 success, 2 usage error, 3 validation error (also an
unreadable input or unwritable output), 4 internal invariant breach.
Untrusted n, k and n * bits(p) are bounded by MAX_N, MAX_K and
MAX_N_BITS before any polynomial arithmetic, distinguisher trials by
MAX_TRIALS, and `attack --delta` refuses exponent notation, so
oversized input fails fast. An input file is read only up to the
length those bounds allow, and a ring field with more than n + 1
entries is refused before any entry is parsed. beta and k get the
bounds `sample` needs.

The loaders return the rings and the isomorphism they validated
(`ParamData.dst`/`src`/`iso`, `GriInstance`, `CompositeCtx`), and the
commands work on those objects, so no file is validated twice.
"""

import argparse
import functools
import math
import os
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

from .crt import CompositeCtx
from .errors import GriforgeError, InvariantBreach, ValidationError
from .gri import (
    GriInstance,
    GriParams,
    GriSecret,
    instance_from_iso,
    oracle_strategy,
    random_guess_strategy,
    run_distinguisher_experiment,
)
from .gring import Isomorphism, RingCtx, RingElem, build_ring_iso, iso_from_phi_x
from .lattice import DEFAULT_DELTA, DEFAULT_GH_FACTOR, AttackReport, render_report, run_attack
from .poly import Poly, _canon, random_monic_irreducible
from .zmod import MAX_MODULUS_BITS, Modulus

FORMAT_HEADER = "griforge 1"
SEED_ENV = "GRIFORGE_SEED"
MAX_N = 64
MAX_K = 256
MAX_TRIALS = 100_000
# bound on n * p.bit_length(): an irreducibility test costs <= n/2 * log2(p) products, n/2 gcds
MAX_N_BITS = 256
# Bound on an input file's length, above the longest file the bounds allow: an instance with
# secrets has 2k + 3 ring fields of at most n + 1 entries, each a sign, a comma and the digits
# of a residue below p^s < 2^(2 * MAX_MODULUS_BITS); one more such line covers the rest.
_MAX_IN_BYTES = (2 * MAX_K + 4) * (MAX_N + 1) * (len(str(1 << 2 * MAX_MODULUS_BITS)) + 2)


# ---------------------------------------------------------------------------
# Generic field file reader/writer


def _render(kind: str, fields: list[tuple[str, object]]) -> str:
    lines = [FORMAT_HEADER, f"kind: {kind}"]
    lines += [f"{key}: {value}" for key, value in fields]
    return "\n".join(lines) + "\n"


def _parse_fields(text: str, kind: str) -> dict[str, str]:
    """The fields of a file of this kind, without the header and `kind` lines."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != FORMAT_HEADER:
        raise ValidationError(f"missing or unknown version header, expected {FORMAT_HEADER!r}")
    fields: dict[str, str] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        if ": " not in line:
            raise ValidationError(f"malformed line {line!r}")
        key, value = line.split(": ", 1)
        if key in fields:
            raise ValidationError(f"duplicate field {key!r}")
        fields[key] = value.strip()
    found = fields.pop("kind", None)
    if found != kind:
        raise ValidationError(f"expected kind {kind!r}, got kind {found!r}")
    return fields


def _ints_text(values) -> str:
    """Comma-separated integers; the empty sequence (the zero polynomial) is "0"."""
    return ",".join(map(str, values)) or "0"


def _parse_ints(text: str, n: int) -> list[int]:
    """The entries of a ring field of degree n, refused before any is converted if above n + 1."""
    if text.count(",") > n:
        raise ValidationError(f"more than n + 1 = {n + 1} entries")
    return [int(tok) for tok in text.split(",")]


_REQUIRED = object()


def _take(fields: dict[str, str], key: str, parse=int, default=_REQUIRED):
    """Pops and parses one field, or returns `default` if given and the field is absent.

    What `parse` raises (`ValueError`, `GriforgeError`) becomes a `ValidationError`."""
    if key not in fields:
        if default is _REQUIRED:
            raise ValidationError(f"missing field {key!r}")
        return default
    try:
        return parse(fields.pop(key))
    except (GriforgeError, ValueError) as exc:
        raise ValidationError(f"field {key!r}: {exc}") from None


def _take_modulus(fields: dict[str, str], prefix: str = "") -> Modulus:
    p = _take(fields, prefix + "p")
    s = _take(fields, prefix + "s")
    try:
        return Modulus(p, s)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


def _take_ring(fields: dict[str, str], key: str, modulus: Modulus, n: int,
               default=_REQUIRED) -> RingCtx:
    """The ring defined by a degree-n polynomial field; RingCtx validates it."""
    def ring(text):
        f = Poly(_parse_ints(text, n), modulus)
        if f.degree != n:
            raise ValidationError(f"must have degree {n}")
        return RingCtx(f)

    return _take(fields, key, ring, default)


def _take_elems(fields: dict[str, str], prefix: str, ctx: RingCtx, k: int):
    """Fields prefix.1 .. prefix.k as elements of ctx; RingElem checks their degree."""
    return tuple(
        _take(fields, f"{prefix}.{i}", lambda text: RingElem(_parse_ints(text, ctx.n), ctx))
        for i in range(1, k + 1)
    )


def _check_size(n: int | None, k: int | None = None, p: int | None = None):
    nbits = None if p is None else n * p.bit_length()
    for label, value, bound in (
        ("n", n, MAX_N), ("k", k, MAX_K), ("n * bits(p)", nbits, MAX_N_BITS)
    ):
        if value is not None and value > bound:
            raise ValidationError(f"{label} = {value} is above the bound {label} <= {bound}")


def _check_beta_k(beta: int | None, k: int | None, m: int):
    """The bounds sample and distinguish put on beta and k, for the fields that are given."""
    if beta is not None and not (1 <= beta and 2 * beta < m):
        raise ValidationError(f"beta = {beta} is outside 1 <= beta < p^s/2 = {m}/2")
    if k is not None and k < 1:
        raise ValidationError(f"k = {k} is below 1")


def _reject_leftovers(fields: dict[str, str]):
    if fields:
        raise ValidationError(f"unknown fields: {', '.join(sorted(fields))}")


# ---------------------------------------------------------------------------
# Ring-pair files: params and instances


@dataclass
class ParamData:
    seed: int | None
    beta: int | None
    k: int | None
    dst: RingCtx
    src: RingCtx | None
    iso: Isomorphism | None


def _pair_text(kind: str, dst: RingCtx, src: RingCtx | None, iso: Isomorphism | None,
               optional, images=(), preimages=()) -> str:
    """p, s, n, the `optional` (key, value) pairs that are not None, F, then
    A.i, secret.f, secret.phi_x and secret.a.i for what is given."""
    fields = [("p", dst.p), ("s", dst.s), ("n", dst.n)]
    fields += [(key, value) for key, value in optional if value is not None]
    fields.append(("F", _ints_text(dst.f.coeffs)))
    fields += [(f"A.{i}", _ints_text(a.coeffs)) for i, a in enumerate(images, start=1)]
    if src is not None:
        fields.append(("secret.f", _ints_text(src.f.coeffs)))
    if iso is not None:
        fields.append(("secret.phi_x", _ints_text(iso.phi_x.coeffs)))
    fields += [(f"secret.a.{i}", _ints_text(a.coeffs)) for i, a in enumerate(preimages, start=1)]
    return _render(kind, fields)


def _take_pair(fields: dict[str, str], required: bool):
    """(beta, k, dst, src, iso) from the shared header, all validated.

    Without `required`, beta, k, secret.f and secret.phi_x may be absent;
    with it, beta and k must be given, and secret.f brings secret.phi_x.
    """
    modulus = _take_modulus(fields)
    n = _take(fields, "n")
    default = _REQUIRED if required else None
    beta, k = (_take(fields, key, int, default) for key in ("beta", "k"))
    _check_size(n, k, modulus.p)
    _check_beta_k(beta, k, modulus.m)
    dst = _take_ring(fields, "F", modulus, n)
    src = _take_ring(fields, "secret.f", modulus, n, None)
    if src is None and "secret.phi_x" in fields:
        raise ValidationError("secret.phi_x requires secret.f")
    iso = None if src is None else _take(
        fields, "secret.phi_x",
        lambda text: iso_from_phi_x(src, dst, RingElem(_parse_ints(text, n), dst)), default)
    return beta, k, dst, src, iso


def serialize_params(data: ParamData) -> str:
    optional = (("seed", data.seed), ("beta", data.beta), ("k", data.k))
    return _pair_text("params", data.dst, data.src, data.iso, optional)


def load_params(text: str) -> ParamData:
    fields = _parse_fields(text, "params")
    seed = _take(fields, "seed", int, None)
    data = ParamData(seed, *_take_pair(fields, required=False))
    _reject_leftovers(fields)
    return data


def serialize_instance(inst: GriInstance, include_secret: bool = True) -> str:
    secret = inst.secret if include_secret else None
    src, iso, preimages = (secret.src, secret.iso, secret.preimages) if secret else (None, None, ())
    optional = (("beta", inst.params.beta), ("k", inst.params.k))
    return _pair_text("instance", inst.dst, src, iso, optional, inst.images, preimages)


def load_instance(text: str) -> GriInstance:
    fields = _parse_fields(text, "instance")
    beta, k, dst, src, iso = _take_pair(fields, required=True)
    images = _take_elems(fields, "A", dst, k)
    secret = None
    if src is not None:
        secret = GriSecret(iso, _take_elems(fields, "secret.a", src, k))
    _reject_leftovers(fields)
    return GriInstance(GriParams(dst.p, dst.s, dst.n, beta, k), dst, images, secret)


# ---------------------------------------------------------------------------
# Composite files


def serialize_composite(public: CompositeCtx, secret: CompositeCtx | None) -> str:
    fields = [
        ("n", str(public.n)),
        ("m", str(public.m)),
        ("components", str(len(public.components))),
    ]
    for i, comp in enumerate(public.components, start=1):
        fields.append((f"component.{i}.p", str(comp.p)))
        fields.append((f"component.{i}.s", str(comp.s)))
        fields.append((f"component.{i}.F", _ints_text(comp.f.coeffs)))
    fields.append(("F", _ints_text(public.f)))
    if secret is not None:
        for i, comp in enumerate(secret.components, start=1):
            fields.append((f"secret.component.{i}.f", _ints_text(comp.f.coeffs)))
        fields.append(("secret.f", _ints_text(secret.f)))
    return _render("composite", fields)


def load_composite(text: str) -> tuple[CompositeCtx, CompositeCtx | None]:
    """Returns the public composite context and, when present, the secret one.

    The stored m must be the product of the component moduli, and each stored
    combined polynomial, canonicalized mod m, the f its components determine.
    """
    fields = _parse_fields(text, "composite")
    n, m, count = (_take(fields, key) for key in ("n", "m", "components"))
    _check_size(n)
    comps, secret_comps = [], []
    for i in range(1, count + 1):
        modulus = _take_modulus(fields, f"component.{i}.")
        _check_size(n, p=modulus.p)
        comps.append(_take_ring(fields, f"component.{i}.F", modulus, n))
        secret_comps.append(_take_ring(fields, f"secret.component.{i}.f", modulus, n, None))
    if m != math.prod(c.m for c in comps):  # before _canon, which divides by m
        raise ValidationError(f"m = {m} is not the product of the component moduli")

    def combined(rings):  # the reader of a stored combination of these rings
        def parse(text):
            f, ctx = _canon(_parse_ints(text, n), m), CompositeCtx(tuple(rings))
            if f != ctx.f:
                raise ValueError("not the CRT combination of the component polynomials")
            return ctx
        return parse

    public = _take(fields, "F", combined(comps))
    secret = None
    if "secret.f" in fields or any(secret_comps):
        if None in secret_comps:
            raise ValidationError("incomplete secret component set")
        secret = _take(fields, "secret.f", combined(secret_comps))
    _reject_leftovers(fields)
    return public, secret


# ---------------------------------------------------------------------------
# Attack report files


def serialize_attack_report(report: AttackReport) -> str:
    fields = [
        ("p", str(report.p)),
        ("s", str(report.s)),
        ("n", str(report.n)),
        ("k", str(report.k)),
        ("beta", str(report.beta)),
        ("delta", str(report.delta)),
        ("gh_factor", repr(report.gh_factor)),
        ("gaussian_heuristic", repr(report.gaussian_heuristic)),
        ("shortness_ratio", repr(report.shortness_ratio)),
    ]
    for i, row in enumerate(report.basis, start=1):
        fields.append((f"basis.{i}", _ints_text(row)))
    fields.append(("candidates", str(len(report.candidates))))
    for i, cand in enumerate(report.candidates, start=1):
        fields.append((f"candidate.{i}", _ints_text(cand.vector)))
        fields.append((f"candidate.{i}.norm_sq", str(cand.norm_sq)))
        fields.append((f"candidate.{i}.in_lattice", "true" if cand.in_lattice else "false"))
        if cand.combo is not None:
            fields.append((f"candidate.{i}.combo", _ints_text(cand.combo)))
    fields.append(("recovery_rank", str(report.recovery_rank)))
    fields.append(("full_recovery", "true" if report.full_recovery else "false"))
    return _render("attack-report", fields)


# ---------------------------------------------------------------------------
# Commands


def _resolve_seed(args) -> int | None:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValidationError(f"{SEED_ENV} must be an integer") from None
    return None


def _rng(args) -> random.Random:
    return random.Random(_resolve_seed(args))


def _read_in(path: str) -> str:
    try:
        with open(path, "rb") as fh:  # by blocks: read(n) would allocate n bytes up front
            data = bytearray()
            while len(data) <= _MAX_IN_BYTES and (block := fh.read(1 << 16)):
                data += block
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    if len(data) > _MAX_IN_BYTES:
        raise ValidationError(f"{path} is longer than the bound of {_MAX_IN_BYTES} bytes")
    return data.decode("utf-8")


def _write_out(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def cmd_gen_params(args) -> int:
    if args.n < 1:
        raise ValidationError("n must be >= 1")
    _check_size(args.n, args.k, args.p)
    modulus = Modulus(args.p, args.s)
    _check_beta_k(args.beta, args.k, modulus.m)
    rng = _rng(args)
    f = random_monic_irreducible(modulus, args.n, rng)
    big_f = random_monic_irreducible(modulus, args.n, rng)
    data = ParamData(_resolve_seed(args), args.beta, args.k, RingCtx(big_f), RingCtx(f), None)
    _write_out(args.out, serialize_params(data))
    return 0


def cmd_make_iso(args) -> int:
    data = load_params(_read_in(args.infile))
    if data.src is None:
        raise ValidationError("make-iso needs a params file carrying secret.f")
    data.iso = build_ring_iso(data.src, data.dst, _rng(args))
    _write_out(args.out, serialize_params(data))
    return 0


def _instance_pieces(data: ParamData, args):
    beta = args.beta if args.beta is not None else data.beta
    k = args.k if args.k is not None else data.k
    if beta is None or k is None:
        raise ValidationError("beta and k must come from flags or the params file")
    _check_size(data.dst.n, k)
    if data.iso is None:
        raise ValidationError("a params file with secret.f and secret.phi_x is required (run make-iso)")
    return data.iso, beta, k


def cmd_sample(args) -> int:
    data = load_params(_read_in(args.infile))
    iso, beta, k = _instance_pieces(data, args)
    inst = instance_from_iso(iso, beta, k, _rng(args))
    _write_out(args.out, serialize_instance(inst, include_secret=not args.public_only))
    return 0


def cmd_attack(args) -> int:
    if "e" in args.delta.lower():  # Fraction("1e10000000") would build 10^10000000
        raise ValidationError(f"delta {args.delta!r} must be a decimal or a fraction, no exponent")
    try:
        delta = Fraction(args.delta)
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse delta {args.delta!r}") from None
    inst = load_instance(_read_in(args.infile))
    report = run_attack(inst.public_only(), delta=delta, gh_factor=args.gh_factor)
    print(render_report(report))
    if args.out is not None:
        _write_out(args.out, serialize_attack_report(report))
    return 0


def cmd_distinguish(args) -> int:
    if not 1 <= args.trials <= MAX_TRIALS:
        raise ValidationError(f"trials = {args.trials} is outside 1 <= trials <= {MAX_TRIALS}")
    data = load_params(_read_in(args.infile))
    iso, beta, k = _instance_pieces(data, args)
    rng = _rng(args)
    inst = instance_from_iso(iso, beta, k, rng)
    if args.strategy == "random":
        strategy = random_guess_strategy(random.Random(rng.getrandbits(64)))
    else:
        strategy = oracle_strategy(inst.secret, beta)
    report = run_distinguisher_experiment(inst.params, strategy, args.trials, rng, instance=inst)
    print(
        f"strategy={args.strategy} trials={report.trials} successes={report.successes} "
        f"rate={report.rate:.4f} wilson95=[{report.wilson_low:.4f},{report.wilson_high:.4f}]"
    )
    return 0


def cmd_crt_combine(args) -> int:
    if len(args.infile) < 2:
        raise ValidationError("crt-combine needs at least two input files")
    datas = [load_params(_read_in(path)) for path in args.infile]
    public = CompositeCtx.from_components([d.dst for d in datas])
    secret = None
    if all(d.src is not None for d in datas):
        secret = CompositeCtx.from_components([d.src for d in datas])
    _write_out(args.out, serialize_composite(public, secret))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; `main` dispatches on its command name."""
    parser = argparse.ArgumentParser(
        prog="griforge",
        description="Galois ring isomorphism toolkit: parameters, isomorphisms, "
        "instances, lattice attacks, distinguisher experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, needs_in=False, needs_out=True):
        if needs_in:
            sp.add_argument("--in", dest="infile", required=True, help="input file")
        if needs_out:
            sp.add_argument("--out", default="-", help="output file (default stdout)")
        sp.add_argument("--seed", type=int, default=None, help=f"RNG seed (or ${SEED_ENV})")

    sp = sub.add_parser("gen-params", help="generate independent defining polynomials")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--beta", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    add_common(sp)

    sp = sub.add_parser("make-iso", help="construct the secret isomorphism")
    add_common(sp, needs_in=True)

    sp = sub.add_parser("sample", help="sample short preimages and their public images")
    sp.add_argument("--beta", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--public-only", action="store_true", help="strip secret fields")
    add_common(sp, needs_in=True)

    sp = sub.add_parser("attack", help="run the lattice attack on a public instance")
    sp.add_argument("--delta", default=str(DEFAULT_DELTA), help="LLL parameter in (1/4, 1)")
    sp.add_argument("--gh-factor", dest="gh_factor", type=float, default=DEFAULT_GH_FACTOR)
    sp.add_argument("--in", dest="infile", required=True, help="instance file")
    sp.add_argument("--out", default=None, help="optional report file")

    sp = sub.add_parser("distinguish", help="measure a distinguisher's success rate")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--strategy", choices=("random", "oracle"), default="random")
    sp.add_argument("--beta", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    add_common(sp, needs_in=True, needs_out=False)

    sp = sub.add_parser("crt-combine", help="combine params files into a composite ring")
    sp.add_argument("--in", dest="infile", action="append", required=True, help="repeatable")
    sp.add_argument("--out", default="-")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # looked up per call, so a rebound cmd_* (a test double, the bench tracer) applies
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except InvariantBreach as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (GriforgeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
