"""Exact computations with graded algebras over Q and GF(p): structural
predicates, shifted matrix-ring classification, K0-level invariants, and
reduced traces."""

from .fields import FieldSpec, GFElement
from .groups import (GradeGroup, GroupElement, SubgroupSpec, coset_index,
                     coset_label, quotient_invariants, derived_subgroup)
from .algebra import (Algebra, AlgebraElement, Subspace, center,
                      commutator_subspace, integer_psi_matrix, is_central_simple,
                      minimal_polynomial, try_invert, two_sided_ideal_closure)
from .wedderburn import SemisimpleDecomposition, split_identity_component
from .graded import (GradedAlgebra, TwistedGroupAlgebra, graded_tensor,
                     is_graded_division, is_graded_simple, is_strongly_graded,
                     support, support_subgroup, trivially_graded,
                     validate_grading, dimension_formula_check)
from .matrixring import (ShiftedMatrixAlgebra, canonical_shift,
                         identity_component, is_crossed_product, is_good_grading,
                         is_graded_simple_matrix, is_strongly_graded_matrix,
                         central_scalar_check, shifted_iso_decision,
                         solve_shift_matrix)
from .azumaya import (EnvelopingAlgebra, braun_check, group_ring_azumaya,
                      is_graded_azumaya_csa, psi_bijective,
                      psi_bijective_matrix_over_graded_field,
                      standard_separability_idempotent,
                      verify_separability_idempotent)
from .ktheory import (CsaShape, FGAbelianGroup, INFINITE_RANK_FREE,
                      ck0_zk0, compare_localized,
                      k0_of_semisimple, k0gr_graded_division,
                      k0gr_strongly_graded, localize, torsion_bound_check)
from .trace import (ReducedCharPoly, nrd, reduced_char_poly,
                    supp_commutator_lemma_check, trd, trd_kernel_check,
                    trd_graded_surjective_check,
                    trd_na_plus_commutator_check,
                    central_commutators_imply_commutative_check)
from .constructors import (construct_group_ring, construct_laurent,
                           construct_matrix_algebra, construct_quaternion,
                           construct_symbol_algebra,
                           construct_truncated_polynomial)
from .fileformat import (dump_graded_algebra, load_graded_algebra,
                         parse_graded_algebra, save_graded_algebra)
from .verdict import VerdictReport

__all__ = [n for n in dir() if not n.startswith("_")]
