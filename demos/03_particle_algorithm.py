"""The finite-particle algorithm approaching the Gaussian equilibrium.

N particle pairs evolve by empirical-mean gradient steps plus
sqrt(2*tau*eta)-scaled Gaussian noise.  Pooling all particles ("the average
particle") gives samples whose law converges, up to an O(1/N) + O(eta) bias,
to the equilibrium distribution.  The script runs a desk-scale experiment
and prints the fitted Gaussian's KL divergence to the equilibrium at each
checkpoint next to the certified one-sided envelope.
"""

import numpy as np

from minmax_langevin import (
    GaussianDist,
    KeyedNoise,
    QuadraticBilinear,
    fit_gaussian,
    gaussian_kl,
    joint_equilibrium,
    parse_config,
    run_algorithm,
)
from minmax_langevin.experiment import initial_state

config = parse_config("""
payoff.kind = QuadraticBilinear
payoff.dim = 1
payoff.A = [1.0]
payoff.B = [1.0]
payoff.C = [0.5]
tau = 1.0
seed = 7
checkpoint_every = 400
algorithm.eta = 0.002
algorithm.n_particles = 256
algorithm.steps = 4000
algorithm.strict_eta = true
init.mean_mode = warm_start
output.dir = runs/demo03
""")

spec = config.payoff
c = spec.constants()
print(f"alpha = {c.alpha:.4f}, L = {c.smooth_L:.4f}, eta = "
      f"{config.algorithm.eta}, N = {config.algorithm.n_particles}")

init, _ = initial_state(config, config.init, KeyedNoise(config.seed))
nu_z = joint_equilibrium(spec, config.tau)

def kl_at(step, state):
    fit = GaussianDist(*fit_gaussian(state.pairs()))
    return gaussian_kl(fit, nu_z)

checkpoints, final = run_algorithm(
    spec, init, config.algorithm, config.seed, config.checkpoint_every,
    on_checkpoint=kl_at,
)

print(f"\n{'step':>6} {'KL(fit || nu_Z)':>16}")
for step, kl in checkpoints:
    print(f"{step:>6} {kl:>16.6f}")

pooled = final.pairs()
fit = GaussianDist(*fit_gaussian(pooled))
print("\nfinal fitted mean:", fit.mean, " (equilibrium mean:", nu_z.mean, ")")
print("final fitted cov trace:", np.trace(fit.cov),
      " (equilibrium trace:", np.trace(nu_z.cov), ")")
