"""wittlat: exact matrix geometry over truncated Witt vectors.

Arithmetic in W_N(F_{p^m}) with Teichmueller lifts, Frobenius and
Verschiebung; exact determinants and elementary-divisor types of matrices
over the ring; stratification of the special-lattice matrix cover with
dominance-order enumeration; executable degeneration witnesses; and
orbit/stabilizer dimension counts validated by independent oracles.
"""

from .degeneration import (ChainStep, TransferWitness, deformation_matrix,
                           degeneration_chain, embed_witness, transfer_witness)
from .dimension import (DimReport, TinyCensus, complete_intersection_check,
                        dim_lattice_orbit, dim_matrix_orbit,
                        dim_matrix_orbit_closed_form, dim_report,
                        regular_lattice_dim, shape_space_dim, stabilizer_dim,
                        tiny_exhaustive_census)
from .errors import (BoundError, CodecUnsupportedError, NotAUnitError,
                     NotInCoverError, ParameterMismatchError,
                     RingMismatchError, ShapeError)
from .field import FieldDescriptor, default_modulus, is_irreducible, is_prime
from .matrix import (GroupShape, WittMat, diagonal, elementary_matrix,
                     identity, in_group, mat_from_obj, mat_to_obj,
                     p_power_diagonal, permutation_matrix, zeros)
from .snf import Cochar, SnfResult, divisor_type, minor_valuations, snf
from .strata import (StrataPoset, StratumReport, classify, dominance_leq,
                     enumerate_strata, in_cover, in_orbit_closure,
                     regular_cochar, sample_cover, sample_group, sample_orbit,
                     subregular_cochar, valuation_predicate)
from .witt import WittElem, WittRing, elem_from_obj, elem_to_obj, witt_ring

__version__ = "0.1.0"

__all__ = [
    "BoundError", "ChainStep", "Cochar", "CodecUnsupportedError", "DimReport",
    "FieldDescriptor", "GroupShape", "NotAUnitError", "NotInCoverError",
    "ParameterMismatchError", "RingMismatchError", "ShapeError", "SnfResult",
    "StrataPoset", "StratumReport", "TinyCensus", "TransferWitness",
    "WittElem", "WittMat", "WittRing", "classify",
    "complete_intersection_check", "default_modulus", "deformation_matrix",
    "degeneration_chain", "diagonal", "dim_lattice_orbit", "dim_matrix_orbit",
    "dim_matrix_orbit_closed_form", "dim_report", "divisor_type",
    "dominance_leq", "elem_from_obj", "elem_to_obj", "elementary_matrix",
    "embed_witness", "enumerate_strata", "identity", "in_cover", "in_group",
    "in_orbit_closure", "is_irreducible", "is_prime", "mat_from_obj",
    "mat_to_obj", "minor_valuations", "p_power_diagonal",
    "permutation_matrix", "regular_cochar", "regular_lattice_dim",
    "sample_cover", "sample_group", "sample_orbit", "shape_space_dim",
    "snf", "stabilizer_dim", "subregular_cochar", "tiny_exhaustive_census",
    "transfer_witness", "valuation_predicate", "witt_ring", "zeros",
]
