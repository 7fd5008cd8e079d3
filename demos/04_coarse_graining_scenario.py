"""Two agents, one system, defective detectors: the full simulation.

Wanda and Theo share a prior, interact with the system through different
noisy pipelines, and then try to agree on a single effective state.

Run: python3 demos/04_coarse_graining_scenario.py
"""

import numpy as np

from statepool import (
    AgentPipeline,
    DephasingChannel,
    ReplacementChannel,
    ScenarioConfig,
    UnitaryDynamics,
    batch_report,
    random_instance,
    run_scenario,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)

# A hand-built instance: Wanda's detector dephases, Theo also rotates first.
cfg = ScenarioConfig(
    prior=np.diag([0.6, 0.4]),
    pipelines=(
        AgentPipeline("Wanda", (DephasingChannel(2, 0.5),)),
        AgentPipeline("Theo", (UnitaryDynamics(HADAMARD), DephasingChannel(2, 1.0))),
    ),
)
res = run_scenario(cfg)
print("compatible:", res.verdict.compatible, "-", res.verdict.diagnostics)
if res.pooling is not None:
    print("pooled state:\n", res.pooling.pooled.real)
else:
    print("pooling failed:", res.pooling_error)

# An engineered failure: both agents end up certain about orthogonal states.
adv = ScenarioConfig(
    prior=np.eye(2) / 2,
    pipelines=(
        AgentPipeline("Wanda", (ReplacementChannel(2, 0),)),
        AgentPipeline("Theo", (ReplacementChannel(2, 1),)),
    ),
)
print("\nadversarial instance:", run_scenario(adv).pooling_error)

# Random instances are reproducible from their seed.
res_a = run_scenario(random_instance(2, seed=42, noise_strength=0.3))
res_b = run_scenario(random_instance(2, seed=42, noise_strength=0.3))
print("\nseeded runs identical:", np.array_equal(res_a.sigma1, res_b.sigma1))

# How often does compatibility (and a clean Hermitian pooling product)
# survive as noise grows?
for row in batch_report([2], count=50, noise_grid=[0.0, 0.5, 1.0], seed=1):
    print(f"dim {row['dim']}  noise {row['noise']:.1f}  "
          f"compatible {row['frac_compatible']:.2f}  "
          f"hermitian pooling {row['frac_hermitian_pooling']:.2f}")
