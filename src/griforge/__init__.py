"""griforge: Galois ring isomorphisms, the GRI problem, and its lattice attack.

Construct presentations of GR(p^s, n), build isomorphisms between them
by lifting residue-field isomorphisms, generate instances of the
isomorphism-recovery problem, and attack them with exact lattice
reduction. The `griforge` command exposes the same machinery for
reproducible experiments.

The top level binds the submodules and only the names that the README
example, CI, the benchmark or the acceptance suite import from it, with
the classes those functions' annotations name; every other public name
is imported from its module, e.g. `griforge.lattice.solve_in_basis`.
"""

from . import errors
from .crt import (
    CompositeCtx,
    CompositeIsomorphism,
    build_composite_iso,
    crt_combine_elems,
    crt_combine_polys,
)
from .ffield import find_root
from .gri import (
    ExperimentReport,
    GriInstance,
    GriParams,
    GriSecret,
    gen_instance,
    oracle_strategy,
    random_guess_strategy,
    reduce_to_ffi,
    run_distinguisher_experiment,
)
from .gring import (
    Isomorphism,
    RingCtx,
    RingElem,
    build_ring_iso,
    field_iso_from_root,
    hensel_iterates,
    hensel_lift,
)
from .lattice import (
    AttackReport,
    build_attack_lattice,
    hnf_row_basis,
    in_lattice,
    lll_reduce,
    run_attack,
)
from .poly import Poly, eval_poly, is_irreducible_mod_p, random_monic_irreducible
from .zmod import Modulus

__version__ = "0.1.0"
