"""Conditional states in action: marginals, the star product, hybrid states.

Run: python3 demos/01_conditional_states.py
"""

import numpy as np

from statepool import (
    JointState,
    RegionLabel,
    condition,
    make_hybrid,
    marginalize,
    quantum_bayes,
    star_product,
)

A = RegionLabel("A", 2)
B = RegionLabel("B", 2)

# A maximally entangled pair: the marginal on either side is maximally mixed,
# even though the joint is pure.
phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
bell = JointState((A, B), np.outer(phi, phi))
print("Bell marginal on A:\n", marginalize(bell, {"A"}).op.real)

# Conditioning the Bell state on A: the conditional operator has trace equal
# to the dimension of A (Tr_B sigma_{B|A} = I_A), not trace 1.
cond = condition(bell, {"A"})
print("\nconditional (B|A) trace:", np.trace(cond.op).real)

# The star product reduces to the ordinary product for commuting operators...
p = np.diag([0.1, 0.2, 0.3, 0.4])
q = np.diag([0.25, 0.75])
print("\ndiagonal star product:", np.diagonal(star_product(p, q, dims=[2, 2], apply_to=1)).real)

# ...and implements Bayesian updating in general.  An uninformative effect
# leaves the prior untouched; a sharp one collapses it.
rho = np.array([[0.7, 0.2], [0.2, 0.3]])
print("\nuninformative update:\n", quantum_bayes(np.eye(2) / 2, rho).real)
print("\nsharp update toward |0>:\n", quantum_bayes(np.diag([1.0, 0.0]), rho).real)

# Hybrid states carry classical data alongside the quantum region.
hybrid = make_hybrid({0: np.diag([0.5, 0.0]), 1: np.diag([0.0, 0.5])})
print("\nhybrid classical marginal:", hybrid.classical_distribution())
print("hybrid quantum marginal:\n", hybrid.quantum_marginal().real)
print("\nexplicit joint (block diagonal):\n", hybrid.to_joint().op.real)
