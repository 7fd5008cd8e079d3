"""Pooling two posteriors against a shared prior, and where it breaks.

Run: python3 demos/03_pooling.py
"""

import numpy as np

from statepool import (
    DepolarizingChannel,
    NonHermitianPoolingProductError,
    ProbabilityDistribution,
    classical_pool,
    minimal_sufficient_statistic,
    quantum_pool,
)
from statepool.compatibility import ConditionalDistribution


def dist(*p):
    return ProbabilityDistribution(tuple(range(len(p))), np.array(p))


# Classical multiplicative pooling: agent 1 learned nothing, agent 2 did,
# so the pool just adopts agent 2's posterior.
r = classical_pool(dist(0.5, 0.5), dist(0.5, 0.5), dist(0.8, 0.2))
print("classical pool:", r.pooled.probs, " c =", r.normalization_c)

# Quantum analogue with a full-rank prior: pooling absorbs a posterior that
# equals the prior.
rng = np.random.default_rng(0)
g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
rho = g.conj().T @ g
rho /= np.trace(rho).real
sigma = DepolarizingChannel(2, 0.5).apply(rho)
print("\npool(rho, rho, sigma) == sigma:",
      np.allclose(quantum_pool(rho, rho, sigma).pooled, sigma))

# Generic posteriors need not commute with the prior: the pooling product
# comes out non-Hermitian, which is the diagnostic that the agents' data
# were not conditionally independent given the system.
g2 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
tau = g2.conj().T @ g2
tau /= np.trace(tau).real
try:
    quantum_pool(rho, sigma, tau)
except NonHermitianPoolingProductError as exc:
    print("\ngeneric pooling fails:", exc)

# Minimal sufficient statistics: outcomes with proportional likelihoods
# carry the same information and collapse into one class.
cond = ConditionalDistribution((0, 1), (0, 1, 2),
                               np.array([[0.2, 0.4], [0.1, 0.2], [0.7, 0.4]]))
stat = minimal_sufficient_statistic(cond)
print("\nstatistic classes:", [sorted(c) for c in stat.classes])

# The pooled assignment as a map on priors is well defined but non-linear.
a1, a2 = DepolarizingChannel(2, 0.5).apply, DepolarizingChannel(2, 0.25).apply
gamma = lambda r: quantum_pool(r, a1(r), a2(r))
a, b = np.diag([0.8, 0.2]), np.diag([0.3, 0.7])
lhs = gamma(0.5 * a + 0.5 * b).pooled
rhs = 0.5 * gamma(a).pooled + 0.5 * gamma(b).pooled
print("\nnonlinearity gap:", np.max(np.abs(lhs - rhs)))
