"""Bruhat interval polytopes for the symmetric group.

Pure-Python, exact-arithmetic library: Bruhat intervals and the generalized
lifting property, the polytope of an interval (dimension, inequality
description, faces, diameter, toric criterion), R-polynomials with the
inversion-minimal recurrence and special matchings, and the parabolic
(G/P) analogues, together with an exact polytope face oracle and exhaustive
property suites over small symmetric groups.

The public names load lazily: `bruhatpoly.<name>` imports its module on
first access (PEP 562), so a process loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it lends the package
_EXPORTS = {
    "errors": "DomainError NotComparableError",
    "intervals": "BruhatInterval atoms chain_via_atoms chain_via_coatoms coatoms "
    "generalized_lift interval inversion_minimal_transpositions",
    "parabolic": "min_coset_rep parabolic_bip_vertices parabolic_faces_check weight_point",
    "perms": "bruhat_leq compose descents format_perm identity inverse is_cover length "
    "longest_element parse_perm",
    "polytopes": "bip_inequalities block_partition crown_type diameter dimension "
    "enumerate_faces f_vector interval_matroids is_face is_toric minkowski_check "
    "normal_cone vertices",
    "rpoly": "IntPolynomial extend_to_special_matching find_special_matchings "
    "generalized_r_identity is_special_matching multiplication_matching r_polynomial "
    "r_tilde recurrence_counterexample_check special_matching_r_identity",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = frozenset(_EXPORTS) | {"checks", "cli", "exactlp"}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # which binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
