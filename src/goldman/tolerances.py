"""Global tolerance ladder: one page of constants and no per-call tuning.

No function or dataclass takes a tolerance, cutoff or iteration limit; a
verify check's own pass threshold is written at the check.  A run may
override VERIFICATION only (`--tol verification=VALUE`), the threshold
of the checks cocycle-law-on-basis, gram-structure and symplectic-basis.
"""

# Construction-time requirements (relator defect, unitarity of images).
CONSTRUCTION = 1e-10

# Verification of algebraic identities on floating-point data.
VERIFICATION = 1e-8

# Finite-difference schemes (step validation, convergence-order windows).
FINITE_DIFFERENCE = 1e-4

# Relative singular-value cutoff for every rank / nullspace decision.
SVD_RELATIVE = 1e-8

# SVD_RELATIVE scales with the larger of the top singular value and this, so
# pure roundoff noise (a rank-one adjoint constraint) stays at rank zero.
SVD_NATURAL_SCALE = 1.0

# A rank decision is rejected as ambiguous when kept and discarded
# singular values are closer than this factor.
RANK_AMBIGUITY_FACTOR = 10.0

# Complement of B in Z: directions whose principal-angle sine to B exceeds
# this (cosine below sqrt(1 - COMPLEMENT_SINE**2)).  Also the guard of
# cocycles.cocycle_dimensions: a sine bound above it means B1 leaves Z1.
COMPLEMENT_SINE = 0.5

# Largest condition number of the probe in linalg.canonical_frame: the
# frame moves by up to about this times a roundoff change of its subspace.
FRAME_PROBE_CONDITION = 1e6

# Largest imaginary part of a pairing allowed on the unitary locus.
UNITARY_IMAGINARY = 1e-10

# Internal target for Newton projection; well below CONSTRUCTION so that
# retraction-based curves are smooth enough for second-order differencing.
NEWTON_TARGET = 1e-13

# Newton projection stops after this many Gauss-Newton steps.
NEWTON_STEP_LIMIT = 50

# Newton projection refuses inputs farther than this from the relator
# variety (locally convergent method; no global guarantees).
NEWTON_TRUST_DEFECT = 0.1

# Deformation trust region: |t| * ||direction|| must stay below this.
DEFORM_TRUST = 0.1

# A ladder of finite-difference values all below this is flat at roundoff
# and has no measurable order (charts.convergence_order's default floor).
FLAT_FLOOR = 1e-12

# Smallest admissible finite-difference step before roundoff dominates.
MIN_FD_STEP = 1e-9

# Largest closedness stencil step; FINITE_DIFFERENCE is the smallest.
CLOSEDNESS_MAX_STEP = 1e-2

# Relative slack on DEFORM_TRUST, so that a step scaled to the trust
# radius itself is not refused for a rounding error.
DEFORM_TRUST_SLACK = 1e-12

# A generator image whose |det| is below this is refused as singular; a
# conjugator c of rank n, when |det c| is at most this times ||c||_2^n.
SINGULAR_IMAGE = 1e-12

# Skew Gram-Schmidt pivot: a pairing at or below this times the larger of
# max|G| and 1 counts as zero, and the form as degenerate.
SYMPLECTIC_PIVOT = 1e-10
