"""Goldman symplectic form on surface-group character varieties.

Exact word algebra for the one-relator surface-group presentation, U(n)
and GL(n,C) representations with the relator exact by construction,
cocycle/coboundary spaces, the Goldman pairing computed two independent
ways, symplectic normal forms, and finite-difference verification of the
deformation differential and of closedness.
"""

from .words import (GroupRingElement, GroupWord, Presentation, TwoCycle,
                    anti_involution, commutator, format_word, fox_derivative,
                    parse_word)
from .reps import (Representation, coboundary_matrix, commutant_dimension,
                   commutator_factor, conjugate_representation, evaluate,
                   evaluate_words, newton_project, random_representation,
                   relator_defect)
from .cocycles import (Cocycle, CocycleBasis, CocycleStack, anti_hermitian_part,
                       coboundary, cocycle_basis, cocycle_law_residuals, extend,
                       extend_ring, extend_words, random_cocycle,
                       real_locus_bases, relator_residual, stack_cocycles,
                       star_involution, word_jacobian)
from .pairing import (GoldmanGram, SymplecticBasis, UnitaryLocusReport,
                      dual_form_matrix, gram, pairing_cup, pairing_dual,
                      pairing_duals, standard_block_j, symplectic_basis, unitary_restriction_check)
from .charts import (Chart, closedness_check, deform, deformation_correction,
                     rh_differential)
from .errors import (ConditioningError, ConvergenceError, DegenerateFormError,
                     GoldmanError, InputError)

__version__ = "0.1.0"
