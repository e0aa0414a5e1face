"""Bruhat interval polytopes for the symmetric group.

Pure-Python, exact-arithmetic library: Bruhat intervals and the generalized
lifting property, the polytope of an interval (dimension, inequality
description, faces, diameter, toric criterion), R-polynomials with the
inversion-minimal recurrence and special matchings, and the parabolic
(G/P) analogues, together with an exact polytope face oracle and exhaustive
property suites over small symmetric groups.
"""

from .errors import DomainError, NotComparableError
from .intervals import (
    BruhatInterval,
    atoms,
    chain_via_atoms,
    chain_via_coatoms,
    coatoms,
    generalized_lift,
    interval,
    inversion_minimal_transpositions,
)
from .parabolic import (
    min_coset_rep,
    parabolic_bip_vertices,
    parabolic_faces_check,
    weight_point,
)
from .perms import (
    bruhat_leq,
    compose,
    descents,
    format_perm,
    identity,
    inverse,
    is_cover,
    length,
    longest_element,
    parse_perm,
)
from .polytopes import (
    bip_inequalities,
    block_partition,
    crown_type,
    diameter,
    dimension,
    enumerate_faces,
    f_vector,
    interval_matroid,
    is_face,
    is_toric,
    minkowski_check,
    normal_cone,
    vertices,
)
from .rpoly import (
    IntPolynomial,
    extend_to_special_matching,
    find_special_matchings,
    generalized_r_identity,
    is_special_matching,
    multiplication_matching,
    r_polynomial,
    r_tilde,
    recurrence_counterexample_check,
    special_matching_r_identity,
)

__version__ = "0.1.0"
