"""Taming a strong rotation with the antisymmetric adjustment.

On the weak-attractor game the plain field spirals so hard that gradient
descent survives only microscopic learning rates.  Adding the rotational
pull A'xi (weight 0.1 here) cancels most of the spin, and the exact spectral
radius of each linear iteration predicts every outcome before running it.
"""

import numpy as np

import diffgames as dg

game = dg.catalog_game("fig3_weak_attractor")
rules = [
    ("plain descent", dg.AdjusterSpec("simgd")),
    ("adjusted (0.1)", dg.AdjusterSpec("sga", lam=0.1)),
]
etas = (0.01, 0.032, 0.1)
stop = dg.StopCriteria(max_iters=10000)

print("rule            eta     predicted rho   outcome     iterations")
for label, spec in rules:
    for eta in etas:
        pred = dg.spectral_oracle(spec, game, eta)
        traj = dg.run(spec, game, [0.5, 0.5], eta, stop)
        print(f"{label:15s} {eta:<7.3f} {pred.spectral_radius:<15.4f} "
              f"{traj.outcome:11s} {traj.outcome_iteration}")

print()
print("the adjustment leaves progress along the field untouched:")
w = np.array([0.5, 0.5])
xi = dg.simultaneous_gradient(game, w)
for lam in (0.0, 0.1, 1.0, -1.0):
    vec = dg.direction(dg.AdjusterSpec("sga", lam=lam), game, w)
    print(f"  lam={lam:+.1f}: <direction, xi> = {vec @ xi:.4f}"
          f"  (|xi|^2 = {xi @ xi:.4f})")

print()
print("with unit weight the adjusted iteration on this game is exactly")
print("(1 - 101 eta) I, so eta must shrink below 2/101; weight 0.1 keeps")
print("all three rates convergent:")
for lam in (1.0, 0.1):
    spec = dg.AdjusterSpec("sga", lam=lam)
    rhos = [dg.spectral_oracle(spec, game, eta).spectral_radius
            for eta in etas]
    print(f"  lam={lam:3.1f}: rho = " + ", ".join(f"{r:.3f}" for r in rhos))
