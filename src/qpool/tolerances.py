"""Every tolerance in qpool: the ``TOL_*`` constants, in plain floats.

The block imports nothing, so the exact paths that need a tolerance read it
without loading numpy; ``linalg`` re-exports it next to the validity rules
that apply it.
"""

# Tolerances, relative to the largest magnitude involved unless marked absolute.
TOL_HERM = 1e-9  # max|A - A^dag| <= TOL_HERM * max(1, max|A|)
TOL_TRACE = 1e-9  # absolute: |Tr rho - 1|, and a common-term decomposition's total weight
TOL_PSD = 1e-9  # lambda_min >= -TOL_PSD * max(1, lambda_max); effects: lambda_max <= 1 + TOL_PSD
TOL_ORTH = 1e-10  # absolute: max|B^dag B - I| for a subspace basis
TOL_RANK = 1e-9  # support: lambda > TOL_RANK * lambda_max; intersection: s > 1 - TOL_RANK
TOL_COMPLETENESS = 1e-9  # absolute: max|sum_k M_k^dag M_k - I|
TOL_RECON = 1e-10  # absolute: drift of a rebuilt common-term decomposition
TOL_REMAINDER = 1e-12  # absolute: smallest kept remainder eigenvalue
TOL_DIAGONAL = 1e-9  # off-diagonal entries for the matrix-form Bayes rule
TOL_COMMUTE = 1e-9  # absolute: Frobenius norm of [rho_a, rho_b] for commuting pooling
TOL_PROB_SUM = 1e-12  # absolute: probability vectors' negative entries and |sum - 1|
TOL_SINGULAR = 1e-15  # absolute: vanishing denominator of the matching constraint
# Eigenvalues of fuse's M within TOL_SPECTRUM * max(m) count as equal: eigh resolves them only to a
# few k * eps * max(m), so at |w| = inf the limit splits its weight evenly over such a run.
TOL_SPECTRUM = 1e-14
