"""Command-line front end and the text serialization it speaks.

Files are UTF-8, one `key: value` field per line after a version
header, with polynomials rendered as ascending comma-separated
centered coefficients. `_ints_text`/`_parse_ints` are the one writer
and reader of that list format, for polynomials, the combined
composite polynomial and attack-report rows. Secret material always
lives under keys prefixed `secret.`, so public exports can be checked
mechanically.

Exit codes: 0 success, 2 usage error, 3 validation error, 4 internal
invariant breach. Untrusted n, k and n * bits(p) are bounded by MAX_N,
MAX_K and MAX_N_BITS before any polynomial arithmetic, distinguisher
trials by MAX_TRIALS, and `attack --delta` refuses exponent notation,
so oversized input fails fast. beta and k get the bounds `sample` needs.

The loaders return the rings and the isomorphism they validated
(`ParamData.dst`/`src`/`iso`, `GriInstance`, `CompositeCtx`), and the
commands work on those objects, so no file is validated twice.
"""

import argparse
import functools
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
from .poly import Poly, _canon, eval_poly, random_monic_irreducible
from .zmod import Modulus

FORMAT_HEADER = "griforge 1"
SEED_ENV = "GRIFORGE_SEED"
MAX_N = 64
MAX_K = 256
MAX_TRIALS = 100_000
# bound on n * p.bit_length(): an irreducibility test costs <= n/2 * log2(p) products, n/2 gcds
MAX_N_BITS = 256


# ---------------------------------------------------------------------------
# Generic field file reader/writer


def _render(kind: str, fields: list[tuple[str, str]]) -> str:
    lines = [FORMAT_HEADER, f"kind: {kind}"]
    lines += [f"{key}: {value}" for key, value in fields]
    return "\n".join(lines) + "\n"


def _parse_fields(text: str) -> tuple[str, dict[str, str]]:
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
    if "kind" not in fields:
        raise ValidationError("missing 'kind' field")
    return fields.pop("kind"), fields


def _take_int(fields: dict[str, str], key: str) -> int:
    if key not in fields:
        raise ValidationError(f"missing field {key!r}")
    try:
        return int(fields.pop(key))
    except ValueError:
        raise ValidationError(f"field {key!r} is not an integer") from None


def _take_opt_int(fields: dict[str, str], key: str) -> int | None:
    if key not in fields:
        return None
    return _take_int({key: fields.pop(key)}, key)


def _ints_text(values) -> str:
    """Comma-separated integers; the empty sequence (the zero polynomial) is "0"."""
    return ",".join(map(str, values)) or "0"


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",")]


def _take_ints(fields: dict[str, str], key: str) -> list[int]:
    if key not in fields:
        raise ValidationError(f"missing field {key!r}")
    try:
        return _parse_ints(fields.pop(key))
    except ValueError:
        raise ValidationError(f"field {key!r} is not a polynomial") from None


def _take_poly(fields: dict[str, str], key: str, modulus: Modulus) -> Poly:
    return Poly(_take_ints(fields, key), modulus)


def _take_modulus(fields: dict[str, str], prefix: str = "") -> Modulus:
    p = _take_int(fields, prefix + "p")
    s = _take_int(fields, prefix + "s")
    try:
        return Modulus(p, s)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None


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
# Parameter files


@dataclass
class ParamData:
    seed: int | None
    beta: int | None
    k: int | None
    dst: RingCtx
    src: RingCtx | None
    iso: Isomorphism | None


def serialize_params(data: ParamData) -> str:
    dst = data.dst
    fields = [("p", str(dst.p)), ("s", str(dst.s)), ("n", str(dst.n))]
    if data.seed is not None:
        fields.append(("seed", str(data.seed)))
    if data.beta is not None:
        fields.append(("beta", str(data.beta)))
    if data.k is not None:
        fields.append(("k", str(data.k)))
    fields.append(("F", _ints_text(dst.f.coeffs)))
    if data.src is not None:
        fields.append(("secret.f", _ints_text(data.src.f.coeffs)))
    if data.iso is not None:
        fields.append(("secret.phi_x", _ints_text(data.iso.phi_x.coeffs)))
    return _render("params", fields)


def load_params(text: str) -> ParamData:
    kind, fields = _parse_fields(text)
    if kind != "params":
        raise ValidationError(f"expected a params file, got kind {kind!r}")
    modulus = _take_modulus(fields)
    n = _take_int(fields, "n")
    seed = _take_opt_int(fields, "seed")
    beta = _take_opt_int(fields, "beta")
    k = _take_opt_int(fields, "k")
    _check_size(n, k, modulus.p)
    _check_beta_k(beta, k, modulus.m)
    big_f = _take_poly(fields, "F", modulus)
    f = _take_poly(fields, "secret.f", modulus) if "secret.f" in fields else None
    phi_x = _take_poly(fields, "secret.phi_x", modulus) if "secret.phi_x" in fields else None
    _reject_leftovers(fields)
    dst = _defining_ring(big_f, n, "F")
    src = _defining_ring(f, n, "secret.f") if f is not None else None
    iso = None
    if phi_x is not None:
        if src is None:
            raise ValidationError("secret.phi_x requires secret.f")
        iso = _checked_iso(src, dst, phi_x)
    return ParamData(seed, beta, k, dst, src, iso)


def _defining_ring(poly: Poly, n: int, label: str) -> RingCtx:
    if poly.degree != n:
        raise ValidationError(f"{label} must have degree {n}")
    try:
        return RingCtx(poly)
    except (GriforgeError, ValueError) as exc:
        raise ValidationError(f"{label}: {exc}") from None


def _checked_iso(src: RingCtx, dst: RingCtx, phi_poly: Poly) -> Isomorphism:
    try:
        return iso_from_phi_x(src, dst, dst.elem(phi_poly.coeffs))
    except GriforgeError as exc:
        raise ValidationError(f"invalid phi_x: {exc}") from None


# ---------------------------------------------------------------------------
# Instance files


def serialize_instance(inst: GriInstance, include_secret: bool = True) -> str:
    params = inst.params
    fields = [
        ("p", str(params.p)),
        ("s", str(params.s)),
        ("n", str(params.n)),
        ("beta", str(params.beta)),
        ("k", str(params.k)),
        ("F", _ints_text(inst.dst.f.coeffs)),
    ]
    for i, image in enumerate(inst.images, start=1):
        fields.append((f"A.{i}", _ints_text(image.coeffs)))
    if include_secret and inst.secret is not None:
        fields.append(("secret.f", _ints_text(inst.secret.src.f.coeffs)))
        fields.append(("secret.phi_x", _ints_text(inst.secret.iso.phi_x.coeffs)))
        for i, pre in enumerate(inst.secret.preimages, start=1):
            fields.append((f"secret.a.{i}", _ints_text(pre.coeffs)))
    return _render("instance", fields)


def load_instance(text: str) -> GriInstance:
    kind, fields = _parse_fields(text)
    if kind != "instance":
        raise ValidationError(f"expected an instance file, got kind {kind!r}")
    modulus = _take_modulus(fields)
    n = _take_int(fields, "n")
    beta = _take_int(fields, "beta")
    k = _take_int(fields, "k")
    _check_size(n, k, modulus.p)
    _check_beta_k(beta, k, modulus.m)
    dst = _defining_ring(_take_poly(fields, "F", modulus), n, "F")
    images = tuple(
        _take_elem(fields, f"A.{i}", dst) for i in range(1, k + 1)
    )
    secret = None
    if "secret.f" in fields:
        src = _defining_ring(_take_poly(fields, "secret.f", modulus), n, "secret.f")
        iso = _checked_iso(src, dst, _take_poly(fields, "secret.phi_x", modulus))
        preimages = tuple(
            _take_elem(fields, f"secret.a.{i}", src) for i in range(1, k + 1)
        )
        secret = GriSecret(src, iso, preimages)
    _reject_leftovers(fields)
    return GriInstance(GriParams(modulus.p, modulus.s, n, beta, k), dst, images, secret)


def _take_elem(fields: dict[str, str], key: str, ctx: RingCtx) -> RingElem:
    poly = _take_poly(fields, key, ctx.modulus)
    if poly.degree >= ctx.n:
        raise ValidationError(f"field {key!r} has degree >= n")
    return RingElem(poly.coeffs, ctx)


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

    The combined polynomials are recomputed from the stored components
    and must agree with the stored combination.
    """
    kind, fields = _parse_fields(text)
    if kind != "composite":
        raise ValidationError(f"expected a composite file, got kind {kind!r}")
    n = _take_int(fields, "n")
    m = _take_int(fields, "m")
    count = _take_int(fields, "components")
    _check_size(n)
    comps = []
    secret_comps = []
    for i in range(1, count + 1):
        modulus = _take_modulus(fields, f"component.{i}.")
        _check_size(n, p=modulus.p)
        big_f = _take_poly(fields, f"component.{i}.F", modulus)
        comps.append(_defining_ring(big_f, n, f"component.{i}.F"))
        if f"secret.component.{i}.f" in fields:
            f = _take_poly(fields, f"secret.component.{i}.f", modulus)
            secret_comps.append(_defining_ring(f, n, f"secret.component.{i}.f"))
    combined = _take_ints(fields, "F")
    secret_combined = _take_ints(fields, "secret.f") if "secret.f" in fields else None
    _reject_leftovers(fields)
    try:
        public = CompositeCtx.from_components(comps)
    except (GriforgeError, ValueError) as exc:
        raise ValidationError(str(exc)) from None
    if public.m != m or public.f != _canon(combined, m):
        raise ValidationError("stored combined polynomial does not match its components")
    secret = None
    if secret_comps:
        if len(secret_comps) != count or secret_combined is None:
            raise ValidationError("incomplete secret component set")
        secret = CompositeCtx.from_components(secret_comps)
        if secret.f != _canon(secret_combined, m):
            raise ValidationError("stored combined secret does not match its components")
    elif secret_combined is not None:
        raise ValidationError("secret.f present without secret components")
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
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None


def _write_out(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    iso = build_ring_iso(data.src, data.dst, _rng(args))
    if not eval_poly(data.src.f, iso.phi_x).is_zero:
        raise InvariantBreach("constructed phi_x is not a root of f")
    data.iso = iso
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
    sp.add_argument("--seed", type=int, default=None, help="unused, accepted for uniformity")

    sp = sub.add_parser("distinguish", help="measure a distinguisher's success rate")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--strategy", choices=("random", "oracle"), default="random")
    sp.add_argument("--beta", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    add_common(sp, needs_in=True, needs_out=False)

    sp = sub.add_parser("crt-combine", help="combine params files into a composite ring")
    sp.add_argument("--in", dest="infile", action="append", required=True, help="repeatable")
    sp.add_argument("--out", default="-")
    sp.add_argument("--seed", type=int, default=None, help="unused, accepted for uniformity")

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
