"""Why simultaneous gradient descent cycles, and what to do about it.

In the zero-sum bilinear game l1 = x'Ay, l2 = -x'Ay the joint field
xi = (Ay, -A'x) rotates around the equilibrium at the origin: it conserves
the scalar 1/2 |xi|^2 exactly, so following it can never settle.  Descending
the gradient of that conserved scalar instead goes straight to the
equilibrium.
"""

import numpy as np

import diffgames as dg

game = dg.catalog_game("example1", payoff=np.eye(2))
rng = np.random.default_rng(0)
w0 = rng.standard_normal(4)
w0 /= np.linalg.norm(w0)

print("start point        :", np.round(w0, 4))
print("field at start     :", np.round(dg.simultaneous_gradient(game, w0), 4))

# The conservation law, numerically: xi is orthogonal to the gradient of
# 1/2 |xi|^2 at every point.
for _ in range(3):
    w = rng.uniform(-2, 2, size=4)
    xi = dg.simultaneous_gradient(game, w)
    gh = dg.grad_hamiltonian(game, w)
    print(f"<xi, grad 1/2|xi|^2> at {np.round(w, 2)} = {xi @ gh:+.2e}")

# Plain simultaneous descent: |xi| barely moves over 200 small steps.
stop = dg.StopCriteria(max_iters=200, loss_threshold=0.0)
plain = dg.run(dg.AdjusterSpec("simgd"), game, w0, 1e-3, stop)
print()
print("simultaneous descent, 200 steps of 1e-3:")
print("  |xi| first/last  : %.6f -> %.6f  (cycling, no progress)"
      % (plain.xi_norms[0], plain.xi_norms[-1]))
print("  |w| first/last   : %.6f -> %.6f"
      % (np.linalg.norm(plain.points[0]), np.linalg.norm(plain.points[-1])))

# Descent on the conserved scalar converges to the equilibrium.
stop = dg.StopCriteria(max_iters=5000, loss_threshold=0.0, xi_threshold=1e-6)
descent = dg.run(dg.AdjusterSpec("hamiltonian-descent"), game, w0, 0.1, stop)
print()
print("descent on 1/2|xi|^2:")
print("  outcome          :", descent.outcome,
      "after", descent.outcome_iteration, "iterations")
print("  final |w|        : %.2e" % np.linalg.norm(descent.final_point))
