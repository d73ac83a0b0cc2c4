"""Numerical tolerances shared across the package.

One absolute tolerance governs geometric identities (barycentric weights,
reconstructions, centroid matching) and one governs inequality-chain
assertions.  Chain verdicts widen the chain tolerance to four times the
ground truth's error: its standard error for Monte Carlo; for cubature, the
error estimate, which the ground-truth policy caps at TOL_CHAIN / 10 so the
tolerance stays TOL_CHAIN.  See ``hhbounds.chains.chain_tolerance``.
"""

#: Absolute tolerance for barycentric weights, reconstructions and centroids.
TOL_GEOM: float = 1e-9

#: Absolute tolerance for inequality-chain slacks (exact or cubature ground truth).
TOL_CHAIN: float = 1e-8

#: A simplex is rejected as degenerate when |det(edge matrix)| falls below
#: this fraction of the product of edge lengths (a scale-invariant shape
#: test; small but well-shaped simplices must pass).
DEGENERACY_RTOL: float = 1e-12

#: Random-simplex conditioning filter used by the verification harness.
COND_LIMIT: float = 1e6
