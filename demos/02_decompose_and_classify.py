"""Splitting game dynamics into a gradient part and a rotation part.

Every game Hessian H splits uniquely as H = S + A with S symmetric and A
antisymmetric.  A identically zero means the dynamics are plain gradient
descent on one implicit function; S identically zero means the dynamics
purely rotate and conserve 1/2 |xi|^2; games in between mix both forces.
The same split classifies fixed points: eigenvalues of S decide stability,
and its per-player diagonal blocks decide local-Nash status.
"""

import numpy as np

import diffgames as dg

rng = np.random.default_rng(1)

print("classifying the catalog (5 random sample points each):")
for entry in dg.CATALOG.values():
    game = dg.catalog_game(entry.name)
    points = [rng.uniform(-2, 2, size=game.dim) for _ in range(5)]
    cls = dg.classify_game(game, points)
    print(f"  {entry.name:22s} {cls.kind:12s} "
          f"|A|={cls.max_antisymmetric:7.3f}  |S|={cls.max_symmetric:7.3f}")

# A closer look at the weak-attractor game: identity attraction, strong spin.
game = dg.catalog_game("fig3_weak_attractor")
dec = dg.helmholtz_split(game.hessian_matrix)
print()
print("weak attractor Hessian:")
print("  H =", dec.hessian.tolist())
print("  S =", dec.symmetric.tolist(), " (weak attraction)")
print("  A =", dec.antisymmetric.tolist(), " (strong rotation)")
print("  eigenvalues of S:", dec.s_eigenvalues.tolist(),
      " spread:", dec.additive_condition_number)

# A fixed point that every player is happy with can still be a saddle of
# the underlying potential: stability and local Nash are different ideas.
saddle = dg.catalog_game("example7")
report = dg.classify_fixed_point(saddle, [0.0, 0.0])
print()
print("per-player-minimum saddle at the origin:")
print("  stability    :", report.stability)
print("  local nash   :", report.is_local_nash)
print("  S eigenvalues:",
      dg.helmholtz_split(saddle.hessian_matrix).s_eigenvalues.tolist())

# The definiteness probe reads the sign of <xi, grad 1/2|xi|^2> without
# forming any matrix: positive near stable regions, negative near unstable.
attractor = dg.catalog_game("fig3_weak_attractor")
repellor = dg.catalog_game("example6", epsilon=0.1)
print()
print("probe <xi, grad 1/2|xi|^2>:")
print("  attractor at (1, 1) : %+.3f" % dg.stability_probe(attractor, [1.0, 1.0]))
print("  repellor  at (1, 0) : %+.3f" % dg.stability_probe(repellor, [1.0, 0.0]))
