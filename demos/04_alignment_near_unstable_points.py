"""Choosing the sign of the adjustment weight near an unstable point.

The repellor game couples a weak push away from the origin with a strong
rotation.  Any fixed positive adjustment weight larger than the repulsion
strength drags the iterates INTO the unstable equilibrium.  The alignment
rule reads two dot products, flips the weight's sign, and escapes instead.
The same sign test fixes consensus updates on a shared concave loss.
"""

import numpy as np

import diffgames as dg

game = dg.catalog_game("example6", epsilon=0.1)
w0 = [2.0, 0.0]

xi = dg.simultaneous_gradient(game, w0)
adj = dg.sym_adjustment(game, w0)
gh = dg.grad_hamiltonian(game, w0)
print("at the start point (2, 0):")
print("  <xi,   grad 1/2|xi|^2> = %+.4f   (negative: unstable side)" % (xi @ gh))
print("  <A'xi, grad 1/2|xi|^2> = %+.4f   (adjustment points inward)" % (adj @ gh))
print("  chosen sign            = %+d" % dg.alignment_sign(xi, adj, gh, 0.1))

stop = dg.StopCriteria(max_iters=2000, loss_threshold=0.0)
fixed = dg.run(dg.AdjusterSpec("sga", lam=1.0), game, w0, 0.01, stop)
aligned = dg.run(dg.AdjusterSpec("sga-aligned", lam=1.0, epsilon=0.1),
                 game, w0, 0.01, stop)
print()
print("2000 steps at eta = 0.01 from (2, 0):")
print("  fixed weight +1 : |w| %.3f -> %.3f   (walks into the repellor)"
      % (np.linalg.norm(fixed.points[0]), np.linalg.norm(fixed.final_point)))
print("  aligned weight  : |w| %.3f -> %.3f   (escapes it)"
      % (np.linalg.norm(aligned.points[0]), np.linalg.norm(aligned.final_point)))

# Consensus optimization has the mirror-image problem on a shared concave
# loss: mixing in grad 1/2|xi|^2 with a large fixed weight chases the
# MAXIMUM. Reading the probe sign before mixing prevents that.
shared = dg.catalog_game("example5", kappa=10.0)
stop = dg.StopCriteria(max_iters=200, loss_threshold=0.0)
plain = dg.run(dg.AdjusterSpec("consensus", lam=0.5), shared, [1.0, 1.0],
               0.01, stop)
aligned = dg.run(dg.AdjusterSpec("aligned-consensus", lam=0.5), shared,
                 [1.0, 1.0], 0.01, stop)
print()
print("shared concave loss -5(x^2 + y^2), 200 steps from (1, 1):")
print("  consensus, weight 0.5 : |w| -> %.2e  (the global maximum!)"
      % np.linalg.norm(plain.final_point))
print("  aligned consensus     : |w| -> %.2e  (runs downhill instead)"
      % np.linalg.norm(aligned.final_point))
