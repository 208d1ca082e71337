"""Exact structure-constant toolkit for Hopf algebra deformations.

Everything is built on exact scalars (rationals or a prime field) and
explicit matrices: axiom checkers with counterexample witnesses, the
product deformation attached to an opposite brace triple, Hopf braces,
diagonal matched pairs, and skew brace enumeration with group-like
linearization.
"""
from .actions import (LeftModuleData, RightModuleData, adjoint_action,
                      check_left_module, check_module_algebra,
                      check_module_coalgebra, check_right_module,
                      check_right_module_coalgebra, left_tensor_square_action,
                      right_tensor_square_action)
from .brace import (HopfBraceData, check_brace_identities, check_brace_morphism,
                    check_hopf_brace, gamma, phi, require_valid_brace,
                    trivial_brace)
from .errors import (BraceAxiomsFailed, BraceForgeError, CanonicalFormError,
                     DimensionMismatch, FieldMismatch, MpAxiomsFailed,
                     NotAGroup, NotCocommutative, NotDiagonal, ObtAxiomsFailed,
                     OrderTooLarge, ParseError, PrereqFailed, SchemaError,
                     ShapeError, SkewBraceAxiomsFailed, StorageError)
from .hopf import (AlgebraData, CoalgebraData, HopfAlgebraData, check_algebra,
                   check_antipode_properties, check_coalgebra, check_hopf,
                   check_hopf_morphism, convolution_unit, convolve,
                   group_algebra, is_commutative, is_cocommutative,
                   opposite_hopf)
from .linmap import (LinMap, PrimeField, QQ, Rationals, Space, braiding,
                     compose, equal, first_difference, parse_field, tensor)
from .matched import (MatchedPairData, check_matched_pair, check_mp_morphism,
                      check_mp_over_A, functor_F, functor_G,
                      obt_from_matched_pair, psi, roundtrip_FG, roundtrip_GF)
from .obt import (OppBraceTripleData, build_deformed_hopf,
                  check_lemma_mu_recovery, check_obt, check_obt_morphism,
                  functor_P, functor_Q, mu_tilde, require_valid_obt,
                  roundtrip_PQ, roundtrip_QP)
from .report import AxiomReport, CheckEntry
from .skewbraces import (CayleyTable, SkewBraceData, automorphisms,
                         builtin_group, check_group, check_skew_brace, cyclic,
                         dihedral, direct_product, enumerate_skew_braces,
                         group_tables, groups_of_order, klein_4, linearize,
                         quaternion_8, symmetric_3)
from .storage import dumps, kind_of, load, loads, save, to_document
from .suite import row_verdicts

__version__ = "0.1.0"
