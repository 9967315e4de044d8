"""griforge: Galois ring isomorphisms, the GRI problem, and its lattice attack.

Construct presentations of GR(p^s, n), build isomorphisms between them
by lifting residue-field isomorphisms, generate instances of the
isomorphism-recovery problem, and attack them with exact lattice
reduction. The `griforge` command exposes the same machinery for
reproducible experiments.
"""

from . import errors
from .crt import (
    CompositeCtx,
    CompositeIsomorphism,
    build_composite_iso,
    crt_combine_elems,
    crt_combine_polys,
    crt_ints,
)
from .ffield import find_root
from .gri import (
    ChiBeta,
    DecisionalChallenge,
    ExperimentReport,
    GriInstance,
    GriParams,
    GriSecret,
    challenge_from_instance,
    gen_decisional,
    gen_instance,
    instance_from_iso,
    oracle_strategy,
    random_guess_strategy,
    reduce_to_ffi,
    run_distinguisher_experiment,
    wilson_interval,
)
from .gring import (
    Isomorphism,
    RingCtx,
    RingElem,
    build_ring_iso,
    field_iso_from_root,
    hensel_iterates,
    hensel_lift,
    iso_from_phi_x,
    ring_iso_from_field_root,
)
from .lattice import (
    AttackReport,
    CandidateVector,
    build_attack_lattice,
    extract_short_vectors,
    hnf_row_basis,
    in_lattice,
    lll_reduce,
    render_report,
    run_attack,
    solve_in_basis,
)
from .poly import Poly, eval_poly, is_irreducible_mod_p, random_monic_irreducible
from .zmod import Modulus, centered, invmod, is_prime

__version__ = "0.1.0"
