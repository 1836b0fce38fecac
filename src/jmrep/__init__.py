"""Exact arithmetic for the level-two Johnson-Morita representation of the
mapping class group of a once-bounded surface.

The package computes in three layers:

* the symplectic lattice H with its intersection pairing, wedge powers with
  half-integer coefficients, and the embedding of the third wedge power into
  Hom(H, half ^2 H)  (`linalg`, `wedge`);
* the two-step nilpotent quotient of the surface group, its group law, and
  membership tests for the images of the surface group and of the handlebody
  kernel subgroup  (`words`, `phi2`);
* the semidirect product (half ^3 H) x Sp(H), the representation of explicit
  free-group endomorphisms into it, and the parity congruences cutting out
  the images of the full mapping class group and of the handlebody subgroup
  (`rho2`, `membership`), driven end to end by a self-certifying catalog of
  generator automorphisms (`catalog`).

All arithmetic is exact: half-integers are stored as doubled integers and
matrix work stays in plain Python ints.
"""

from .errors import (
    GenusMismatch,
    JmrepError,
    NotInWedge3,
    NotSymplectic,
    WordLengthExceeded,
)
from .linalg import (
    HVector,
    IntMatrix,
    SymplecticMatrix,
    basis_label,
    basis_vector,
    make_J,
    pairing,
    symplectic_check,
    symplectic_inverse,
    transvection,
    zero_vector,
)
from .wedge import (
    HomHW2,
    Wedge2,
    Wedge3,
    half_wedge2_of,
    kappa,
    kappa_hom,
    sp_action_on_hom,
    wedge2_sp_action,
    wedge3_apply,
    wedge3_decode,
    wedge3_embed,
    wedge3_of,
    wedge3_sp_action,
)
from .words import (
    EndomorphismSpec,
    FreeWord,
    boundary_word,
    endo_apply,
    endo_compose,
    word_reduce,
)
from .phi2 import (
    Phi2Element,
    phi2_b_membership,
    phi2_eval_word,
    phi2_inv,
    phi2_mul,
    phi2_pi_membership,
    phi2_word_synthesis,
)
from .rho2 import (
    Rho2Element,
    act_on_phi2,
    morita_shift,
    morita_tau2_prime,
    principal_crossed_hom,
    rho2_inv,
    rho2_mul,
    tau2_from_endo,
    tau2_tilde_from_endo,
)
from .jsonio import (
    canonical_dumps,
    decode_endo,
    decode_hvector,
    decode_phi2,
    decode_rho2,
    decode_symplectic,
    decode_wedge2,
    decode_wedge3,
    decode_word,
    encode_endo,
    encode_hvector,
    encode_matrix,
    encode_phi2,
    encode_rho2,
    encode_wedge2,
    encode_wedge3,
    encode_word,
)
from .membership import (
    canonical_lift,
    compute_E,
    handlebody_failures,
    handlebody_membership,
    handlebody_sp_check,
    mcg_membership,
    preserves_phi2_b,
    torelli_handlebody_basis,
)
from .catalog import (
    CatalogEntry,
    ValidationReport,
    catalog,
    entry_from_dict,
    entry_to_dict,
    validate_entry,
)

__version__ = "0.1.0"

# every public name is a class or a function imported above; tests/test_api.py pins the list
__all__ = sorted(name for name, value in globals().items()
                 if callable(value) and not name.startswith("_"))
