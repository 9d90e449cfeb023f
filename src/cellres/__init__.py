"""Cellular resolutions of monomial ideals.

Exact (integer/rational) computation of Scarf complexes, cellular free
complexes and their exactness and minimality, irredundant irreducible
decompositions, and the symbolic residue current attached to a cellular
resolution, with per-entry coefficient classification and annihilator
bounds.
"""

from cellres.complexes import (
    ENUMERATION_CAP,
    Face,
    LabeledComplex,
    is_acyclic,
    lcm_lattice,
    polyhedral_from_incidence,
    reduced_homology_ranks,
    restrict_leq,
    simplicial_from_facets,
    taylor_complex,
)
from cellres.decompose import (
    Decomposition,
    associated_primes,
    decompose_brute,
    decompose_minimal,
    decompose_scarf,
    primary_grouping,
)
from cellres.monomial import (
    IrreducibleIdeal,
    Monomial,
    MonomialIdeal,
    lcm,
    unit_ideal,
)
from cellres.residue import (
    DualityReport,
    ResidueCurrent,
    ResidueEntry,
    annihilator_bounds,
    classify,
    duality_check,
    residue_current,
)
from cellres.resolution import (
    FreeComplex,
    betti_ranks,
    build_complex,
    differential,
    is_minimal,
    is_resolution,
    verify_chain,
)
from cellres.scarf import GhostedIdeal, ScarfPair, scarf_complex, scarf_pairs, star_ideal

__version__ = "0.1.0"

__all__ = [
    "ENUMERATION_CAP",
    "Face",
    "LabeledComplex",
    "is_acyclic",
    "lcm_lattice",
    "polyhedral_from_incidence",
    "reduced_homology_ranks",
    "restrict_leq",
    "simplicial_from_facets",
    "taylor_complex",
    "Decomposition",
    "associated_primes",
    "decompose_brute",
    "decompose_minimal",
    "decompose_scarf",
    "primary_grouping",
    "IrreducibleIdeal",
    "Monomial",
    "MonomialIdeal",
    "lcm",
    "unit_ideal",
    "DualityReport",
    "ResidueCurrent",
    "ResidueEntry",
    "annihilator_bounds",
    "classify",
    "duality_check",
    "residue_current",
    "FreeComplex",
    "betti_ranks",
    "build_complex",
    "differential",
    "is_minimal",
    "is_resolution",
    "verify_chain",
    "GhostedIdeal",
    "ScarfPair",
    "scarf_complex",
    "scarf_pairs",
    "star_ideal",
]
