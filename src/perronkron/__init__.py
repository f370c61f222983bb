"""Exact arithmetic toolkit for Kronecker products of Perron similarities."""

from .indexing import IndexPair, division_identity_holds, fold_index, unfold_index
from .linalg import (
    COMPLEX,
    RATIONAL,
    Matrix,
    ModeMismatchError,
    SingularMatrixError,
    Tolerance,
    Vector,
    basis_vector,
    diag_embed,
    diag_kron_identity,
    inverse,
    is_entrywise_nonneg,
    kron,
    kron_factor,
    kron_vec,
    ones_vector,
    p_norm,
)
from .perron import (
    CounterexampleReport,
    PerronWitness,
    cone_inequalities,
    find_perron_witness,
    in_spectracone,
    in_spectratope,
    is_ideal,
    kron_witness_index,
    make_totally_nonzero,
    reproduce_counterexample,
    similarity_image,
    strict_cone_containment_certificate,
    verify_strong_certificate,
)
from .cones import (
    ConeGenerators,
    coni_member,
    conv_member,
    enumerate_extreme_rays,
    kron_generator_set,
    spectratope_strictness_certificate,
)
from .digraph import (
    Digraph,
    NotIrreducibleError,
    digraph_of,
    imprimitivity_index,
    is_irreducible,
    kron_irreducibility_predicate,
)
from .families import (
    VerificationFailedError,
    circulant,
    counterexample_factors,
    cycle_companion,
    dft,
    extremal_row_image,
    hadamard_like,
)
from .verification import run_verification_suite

__version__ = "0.1.0"
