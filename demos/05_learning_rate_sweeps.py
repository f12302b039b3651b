"""Benchmarking update rules across learning rates, reproducibly.

A sweep crosses update rules with a learning-rate grid, records outcome,
iterations-to-convergence and trailing losses per cell, and attaches the
exact spectral-radius prediction wherever the rule is linear.  Each rule's
cells step together as one batch, and identical seeds give byte-identical
CSV output on every rerun.
"""

import numpy as np

import diffgames as dg

# The scalar bilinear saddle: adjusted updates vs extrapolated updates.
cells = dg.run_preset("fig4", seed=0)

def window(cells, kind):
    etas = sorted(c.eta for c in cells if c.adjuster == kind
                  and c.outcome == "converged")
    return (min(etas), max(etas), len(etas)) if etas else (None, None, 0)

for kind in ("sga", "omd"):
    lo, hi, n = window(cells, kind)
    print(f"{kind:4s}: {n:2d}/50 grid rates converge, window "
          f"[{lo:.3f}, {hi:.3f}]")

print()
print("spot checks against the exact iteration spectrum:")
for kind in ("sga", "omd"):
    for eta in (0.3, 0.9, 1.5):
        cell = min((c for c in cells if c.adjuster == kind),
                   key=lambda c: abs(c.eta - eta))
        print(f"  {kind:4s} eta={cell.eta:5.3f}  rho={cell.spectral_radius:6.3f}"
              f"  outcome={cell.outcome}")

# Sweeps serialize to plot-ready CSV/JSON; rows follow the configured order.
data = dg.serialize(cells, "csv")
path = "fig4_sweep.csv"
with open(path, "wb") as fh:
    fh.write(data)
print()
print(f"wrote {len(cells)} cells to {path} "
      f"({data.count(b'converged')} converged rows)")

# Custom sweeps are one config away; seeded start points are drawn up
# front, so a rerun reproduces every byte.
config = dg.SweepConfig(
    game="fig7_four_player",
    game_params={"epsilon": 0.01},
    adjusters=(dg.AdjusterSpec("sga", lam=1.0), dg.AdjusterSpec("omd")),
    etas=tuple(np.linspace(0.05, 0.3, 6)),
    w0=dg.RandomBall(1.0),
    stop=dg.StopCriteria(max_iters=5000),
    seed=7,
)
assert dg.serialize(dg.sweep(config), "csv") == \
    dg.serialize(dg.sweep(config), "csv")
print()
print("four-player game, iterations to convergence (sga vs omd):")
four = dg.sweep(config)
for eta in sorted({c.eta for c in four}):
    by_kind = {c.adjuster: c for c in four if c.eta == eta}
    sga, omd = by_kind["sga"], by_kind["omd"]
    print(f"  eta={eta:5.2f}  sga: {sga.outcome:10s} {sga.iters:5d}   "
          f"omd: {omd.outcome:10s} {omd.iters:5d}")
