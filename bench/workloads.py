"""The benchmark's three workloads: seeded inputs, the timed steps of one
round, and the correctness checks on their outputs.

Each workload is single-threaded and closed-loop, with one client, and
runs sweeps with one job.  The inputs are generated here from the
benchmark seed; the package only ever receives the generated games,
configs and start points.

- ``presets``: the fig3/fig4/fig7 reproductions, serialized to CSV and
  JSON, plus one in-process ``diffgames sweep --config``.  d <= 4, so the
  cost is Python and NumPy call overhead per Euler step.
- ``wide``: a seeded realizable quadratic game with d = 256 (8 players of
  32) under all seven rules on a step-size grid, plus the spectral oracle
  for each linear rule.  Arithmetic dominates.
- ``fd_general``: a non-quadratic game with d = 16 (4 players of 4) and no
  analytic Hessian, so every Hessian product takes the finite-difference
  path, plus the analysis layer at its stable fixed point.

A workload's ``steps`` are named zero-argument callables; one round runs
them all in order.  A step that raises yields the exception as its output,
which ``verify`` counts as a failed check.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

from tracing import real_iterations

KINDS = ("simgd", "sga", "sga-aligned", "consensus", "aligned-consensus",
         "hamiltonian-descent", "omd")
# Rules whose Euler iteration is linear on quadratic games: the spectral
# oracle predicts their outcome exactly.
LINEAR_KINDS = ("simgd", "sga", "consensus", "hamiltonian-descent", "omd")

# Oracle agreement rule: a cell is checked only when its spectral radius is
# at least DELTA away from 1.
DELTA = 0.02
# |w| below which a converging linear run's losses have met the loss
# threshold, for the budget estimate in ``oracle_check``.
CONVERGED_NORM = 1e-3


class Checks:
    """Counts correctness checks and keeps a line for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def completed(self, what: str, output) -> bool:
        """Count one check that a step or call returned; False if it raised."""
        if isinstance(output, Exception):
            self.expect(False, f"{what} raised {type(output).__name__}: "
                               f"{output}")
            return False
        self.expect(True, what)
        return True


def oracle_check(checks, label, rho, outcome, w0_norm, stop) -> None:
    """The rho +/- delta rule: a run converges within a budget derived from
    log(tol / |w0|) / log(rho) when rho < 1 - delta, and diverges when
    rho > 1 + delta.  Where the budget is too short to decide, only the
    opposite outcome is ruled out."""
    if rho < 1.0 - DELTA:
        need = stop.loss_window + 3 * math.log(CONVERGED_NORM / w0_norm) \
            / math.log(rho)
        ok = (outcome == "converged" if stop.max_iters >= need
              else outcome != "diverged")
        checks.expect(ok, f"{label}: rho={rho:.4f} < 1 but {outcome}")
    elif rho > 1.0 + DELTA:
        need = 3 * math.log(stop.divergence_norm / w0_norm) / math.log(rho)
        ok = (outcome == "diverged" if stop.max_iters >= need
              else outcome != "converged")
        checks.expect(ok, f"{label}: rho={rho:.4f} > 1 but {outcome}")


def _traj_key(traj):
    return traj.outcome, real_iterations(traj), traj.final_point.tobytes()


def unit_vector(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def ball_point(rng, d, radius):
    """One draw of the sweep's RandomBall start-point policy."""
    v = unit_vector(rng, d)
    return radius * rng.random() ** (1.0 / d) * v


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

# The presets always run at this seed: their bytes are checked against the
# digests below on every run, and their work is the same for every
# benchmark seed.  The benchmark seed drives the CLI sweep's config.
PRESET_SEED = 0
# sha256 of serialize(run_preset(name, seed=0), fmt) for fmt = csv, json.
PRESET_DIGESTS = {
    "fig3": ("51a8ae970ec7a7a7957241f45ff8a2492e78ecd98343c2da1881afdf7e9e497f",
             "739bc330b79461a860e37a5e7806b264bf0ea22b10e73c88e8cebcf9392d7587"),
    "fig4": ("7dd73a7650b9a6981a10de5745d01706e141c71b49ef760eaaf3b1cd98a1051a",
             "d417205909439e5508cd4b27d4f1e0b7d3cbec3bf86641a9e493bd0a7a265c8f"),
    "fig7": ("ddde74d721d3463a6dda1a396c40b47a5d51697f43614cb2229c45ca57bf0bdf",
             "57229105e0de68c927f871f930a022e2f9546b826f5c3b6e1705af03a6855e7f"),
}


class Presets:
    name = "presets"
    probe = "small"

    def setup(self, dg, seed, tiny, out_dir):
        rng = np.random.default_rng(seed)
        count = 3 if tiny else 10
        etas = np.geomspace(0.02, 0.5, count) * (1 + 0.02 * rng.uniform(
            -1, 1, count))
        # Weak repellor plus rotation: sga converges, omd mostly runs to the
        # budget.  Unit-norm starts keep each cell's cost seed-independent.
        config = {
            "game": "example6",
            "game_params": {"epsilon": 0.1},
            "adjusters": [{"kind": "sga", "lambda": 1.0}, {"kind": "omd"}],
            "etas": [float(e) for e in etas],
            "w0": [unit_vector(rng, 2).tolist() for _ in range(2)],
            "stop": {"max_iters": 200},
            "seed": seed,
        }
        config_path = out_dir / "presets-cli-config.json"
        config_path.write_text(json.dumps(config, indent=2) + "\n")
        cli_out = out_dir / "presets-cli-sweep.csv"
        return {
            "presets": ("fig3",) if tiny else ("fig3", "fig4", "fig7"),
            "config": config,
            "argv": ["sweep", "--config", str(config_path), "--format", "csv",
                     "--out", str(cli_out)],
            "cli_out": cli_out,
        }

    def steps(self, dg, inputs):
        def preset(name):
            def step():
                result = dg.run_preset(name, seed=PRESET_SEED)
                return dg.serialize(result, "csv"), dg.serialize(result, "json")
            return step

        steps = [(f"preset:{name}", preset(name)) for name in inputs["presets"]]
        steps.append(("cli", lambda: dg.cli.main(inputs["argv"])))
        return steps

    def fingerprint(self, output):
        return output

    def verify(self, dg, inputs, outputs, checks):
        """Digests, a replay of every cell through ``dg.run`` (which also
        gives the real iteration counts), and oracle agreement."""
        preset_iters = 0
        for name in inputs["presets"]:
            out = outputs[f"preset:{name}"]
            if not checks.completed(f"preset {name}", out):
                continue
            csv_bytes, json_bytes = out
            want_csv, want_json = PRESET_DIGESTS[name]
            checks.expect(_digest(csv_bytes) == want_csv,
                          f"{name}: CSV bytes differ from the recorded digest")
            checks.expect(_digest(json_bytes) == want_json,
                          f"{name}: JSON bytes differ from the recorded digest")
            replays = []
            for cfg in dg.preset_configs(name, seed=PRESET_SEED):
                game = dg.catalog_game(cfg.game, **cfg.game_params)
                if isinstance(cfg.w0, dg.RandomBall):
                    rng = np.random.default_rng(cfg.seed)
                    starts = [[ball_point(rng, game.dim, cfg.w0.radius)]
                              for _ in cfg.etas]
                else:
                    starts = [[np.asarray(p, float) for p in cfg.w0]
                              for _ in cfg.etas]
                for spec in cfg.adjusters:
                    for ei, eta in enumerate(cfg.etas):
                        for w0 in starts[ei]:
                            replays.append((game, spec, eta, w0, cfg.stop))
            preset_iters += _replay(dg, name, json.loads(json_bytes)["cells"],
                                    replays, checks)
        cli_iters = 0
        code = outputs["cli"]
        if checks.completed("cli sweep", code):
            checks.expect(code == 0, f"cli sweep exited {code}")
        if code == 0:
            cfg = dg.config_from_json(inputs["config"])
            game = dg.catalog_game(cfg.game, **cfg.game_params)
            replays = [(game, spec, eta, np.asarray(w0, float), cfg.stop)
                       for spec in cfg.adjusters for eta in cfg.etas
                       for w0 in cfg.w0]
            cells = list(csv.DictReader(io.StringIO(
                inputs["cli_out"].read_text())))
            cli_iters = _replay(dg, "cli", cells, replays, checks)
        return {"presets": preset_iters, "cli": cli_iters}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _replay(dg, label, cells, replays, checks) -> int:
    """Replay sweep cells through ``dg.run``; return their real iterations."""
    checks.expect(len(cells) == len(replays),
                  f"{label}: {len(cells)} cells, {len(replays)} expected")
    iters = 0
    for cell, (game, spec, eta, w0, stop) in zip(cells, replays):
        where = f"{label} {spec.kind}@{eta:.4g}"
        try:
            traj = dg.run(spec, game, w0, eta, stop)
        except Exception as exc:
            checks.completed(f"{where} replay", exc)
            continue
        iters += real_iterations(traj)
        capped = (traj.outcome_iteration if traj.outcome == "converged"
                  else stop.max_iters)
        checks.expect(
            (cell["outcome"], int(cell["iters"])) == (traj.outcome, capped),
            f"{where}: cell says {cell['outcome']}/{cell['iters']}, "
            f"replay gives {traj.outcome}/{capped}")
        rho = cell["spectral_radius"]
        if rho not in ("", None):
            oracle_check(checks, where, float(rho), cell["outcome"],
                         float(np.linalg.norm(w0)), stop)
    return iters


# ---------------------------------------------------------------------------
# wide
# ---------------------------------------------------------------------------

def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def realizable_hessian(rng, partition, eig_low, eig_high, rotation):
    """Game Hessian S + A: S symmetric with eigenvalues drawn in a range, A
    antisymmetric with zero diagonal blocks and spectral norm ``rotation``.
    Every such matrix is the Hessian of a quadratic game."""
    d = partition.total
    q = random_orthogonal(rng, d)
    sym = (q * rng.uniform(eig_low, eig_high, size=d)) @ q.T
    m = rng.standard_normal((d, d))
    anti = 0.5 * (m - m.T)
    for i in range(partition.num_players):
        blk = partition.block(i)
        anti[blk, blk] = 0.0
    anti *= rotation / np.linalg.norm(anti, 2)
    return sym + anti


class Wide:
    name = "wide"
    probe = "wide"
    # S eigenvalues in [0.5, 1], rotation of norm 1: every linear rule
    # contracts at eta 0.25 and 0.45 and expands at 1.6, with rho at least
    # 0.08 away from 1 on each side.
    EIGS = (0.5, 1.0)
    ROTATION = 1.0
    ETAS = (0.25, 0.45, 1.6)
    # Start radius 10 puts the initial mean loss ~450x above the threshold.
    RADIUS = 10.0
    # A 100-iteration loss window: converging cells stop at ~100-120
    # iterations, so the round's cost varies little from seed to seed.
    STOP = dict(max_iters=400, loss_window=100)

    def setup(self, dg, seed, tiny, out_dir):
        rng = np.random.default_rng(seed)
        players, size = (4, 8) if tiny else (8, 32)
        partition = dg.PlayerPartition((size,) * players)
        hessian = realizable_hessian(rng, partition, *self.EIGS, self.ROTATION)
        return {
            "game": dg.quadratic_game_from_hessian(partition, hessian),
            "hessian": hessian,
            "w0": self.RADIUS * unit_vector(rng, partition.total),
            "specs": [dg.AdjusterSpec(k, lam=1.0) for k in KINDS],
            "stop": dg.StopCriteria(**self.STOP),
            "probes": rng.standard_normal((2, partition.total)),
        }

    def steps(self, dg, inputs):
        game, w0, stop = inputs["game"], inputs["w0"], inputs["stop"]

        def cell(spec, eta):
            def step():
                traj = dg.run(spec, game, w0, eta, stop)
                if spec.kind not in LINEAR_KINDS:
                    return traj, None
                return traj, dg.spectral_oracle(spec, game, eta).spectral_radius
            return step

        return [(f"{spec.kind}@{eta}", cell(spec, eta))
                for spec in inputs["specs"] for eta in self.ETAS]

    def fingerprint(self, output):
        traj, rho = output
        return _traj_key(traj), rho

    def verify(self, dg, inputs, outputs, checks):
        game, hessian, w = inputs["game"], inputs["hessian"], inputs["w0"]
        w0_norm = float(np.linalg.norm(w))
        iters, sides = 0, {}
        for name, out in outputs.items():
            where = f"wide {name}"
            if not checks.completed(where, out):
                continue
            traj, rho = out
            iters += real_iterations(traj)
            if rho is not None:
                oracle_check(checks, where, rho, traj.outcome, w0_norm,
                             inputs["stop"])
                sides.setdefault(name.split("@")[0], set()).add(rho < 1.0)
        for kind in LINEAR_KINDS:
            checks.expect(sides.get(kind) == {True, False},
                          f"wide {kind}: eta grid lacks a rho<1 or rho>1 cell")
        for v in inputs["probes"]:
            checks.expect(np.allclose(dg.hvp(game, w, v), hessian @ v,
                                      rtol=1e-10, atol=1e-10),
                          "wide: analytic hvp differs from H v")
            checks.expect(np.allclose(dg.thvp(game, w, v), hessian.T @ v,
                                      rtol=1e-10, atol=1e-10),
                          "wide: analytic thvp differs from H' v")
        return {"runs": iters}


# ---------------------------------------------------------------------------
# fd_general
# ---------------------------------------------------------------------------

class TanhGame:
    """A non-quadratic n-player game with a stable fixed point at 0.

    Player i's loss is
        mu/2 |x_i|^2 + kappa/4 sum(x_i^4) + sum_{j != i} x_i' tanh(C_ij x_j)
    with C_ji = -C_ij', so the couplings are purely rotational at the origin
    and S(0) = mu I.  The closed-form Hessian stays here for checks; the
    package only sees the losses and gradients.
    """

    MU, KAPPA, ROTATION = 1.0, 1.0, 1.0

    def __init__(self, rng, players, size):
        self.players, self.size = players, size
        self.coupling = {}
        for i in range(players):
            for j in range(i + 1, players):
                c = rng.standard_normal((size, size)) * self.ROTATION \
                    / math.sqrt(size)
                self.coupling[i, j], self.coupling[j, i] = c, -c.T

    def _blocks(self, w):
        return w.reshape(self.players, self.size)

    def loss(self, i):
        def f(w):
            x = self._blocks(w)
            value = 0.5 * self.MU * (x[i] @ x[i]) \
                + 0.25 * self.KAPPA * np.sum(x[i] ** 4)
            for j in range(self.players):
                if j != i:
                    value += x[i] @ np.tanh(self.coupling[i, j] @ x[j])
            return float(value)
        return f

    def gradient(self, i):
        def g(w):
            x = self._blocks(w)
            out = self.MU * x[i] + self.KAPPA * x[i] ** 3
            for j in range(self.players):
                if j != i:
                    out = out + np.tanh(self.coupling[i, j] @ x[j])
            return out
        return g

    def hessian(self, w):
        x = self._blocks(w)
        s, h = self.size, np.zeros((w.size, w.size))
        for i in range(self.players):
            bi = slice(i * s, (i + 1) * s)
            h[bi, bi] = np.diag(self.MU + 3.0 * self.KAPPA * x[i] ** 2)
            for j in range(self.players):
                if j != i:
                    sech2 = 1.0 / np.cosh(self.coupling[i, j] @ x[j]) ** 2
                    h[bi, j * s:(j + 1) * s] = sech2[:, None] \
                        * self.coupling[i, j]
        return h


class FdGeneral:
    name = "fd_general"
    probe = "small"
    ETA = 0.1
    RADIUS = 0.5
    # Every run takes exactly the budget (the loss stop is off), so the
    # round's cost does not depend on the seed.
    STOP = dict(max_iters=60, loss_threshold=0.0)
    TINY_STOP = dict(max_iters=10, loss_threshold=0.0)

    def setup(self, dg, seed, tiny, out_dir):
        rng = np.random.default_rng(seed)
        players, size = 4, 4
        closed_form = TanhGame(rng, players, size)
        partition = dg.PlayerPartition((size,) * players)
        game = dg.make_game(partition,
                            [closed_form.loss(i) for i in range(players)],
                            [closed_form.gradient(i) for i in range(players)])
        d = partition.total
        return {
            "game": game,
            "closed_form": closed_form,
            "w0": self.RADIUS * unit_vector(rng, d),
            "origin": np.zeros(d),
            "specs": [dg.AdjusterSpec(k, lam=1.0) for k in KINDS],
            "stop": dg.StopCriteria(**(self.TINY_STOP if tiny else self.STOP)),
            "probes": [(0.3 * rng.standard_normal(d), rng.standard_normal(d))
                       for _ in range(4)],
        }

    def steps(self, dg, inputs):
        game, origin = inputs["game"], inputs["origin"]

        def rule(spec):
            return lambda: dg.run(spec, game, inputs["w0"], self.ETA,
                                  inputs["stop"])

        def analysis():
            return (dg.analyze_point(game, origin),
                    dg.classify_fixed_point(game, origin),
                    dg.full_hessian(game, origin))

        return ([(spec.kind, rule(spec)) for spec in inputs["specs"]]
                + [("analysis", analysis)])

    def fingerprint(self, output):
        if isinstance(output, tuple):
            bundle, report, hess = output
            return (json.dumps(bundle, sort_keys=True), report.stability,
                    hess.tobytes())
        return _traj_key(output)

    def verify(self, dg, inputs, outputs, checks):
        game, closed, stop = (inputs["game"], inputs["closed_form"],
                              inputs["stop"])
        iters = 0
        for spec in inputs["specs"]:
            where = f"fd_general {spec.kind}"
            traj = outputs[spec.kind]
            if not checks.completed(f"{where} run", traj):
                continue
            iters += real_iterations(traj)
            checks.expect(traj.outcome == "max_iters"
                          and real_iterations(traj) == stop.max_iters,
                          f"{where}: stopped early ({traj.outcome})")
            checks.expect(traj.xi_norms[-1] < traj.xi_norms[0],
                          f"{where}: |xi| did not shrink toward the stable "
                          f"fixed point")
        if checks.completed("fd_general analysis", outputs["analysis"]):
            bundle, report, hess = outputs["analysis"]
            checks.expect(bundle["is_fixed_point"]
                          and bundle["stability"] == "stable"
                          and bundle["local_nash"] is True
                          and bundle["game_class"] == "general",
                          f"fd_general analyze_point verdict: "
                          f"{bundle['stability']}, {bundle['game_class']}")
            checks.expect(report.stability == "stable" and report.is_local_nash,
                          f"fd_general classify_fixed_point: "
                          f"{report.stability}, nash={report.is_local_nash}")
            checks.expect(np.allclose(hess, closed.hessian(inputs["origin"]),
                                      rtol=1e-6, atol=1e-6),
                          "fd_general: FD full_hessian differs from the "
                          "closed form")
        for w, v in inputs["probes"]:
            h = closed.hessian(w)
            for name, got, want in (("hvp", dg.hvp(game, w, v), h @ v),
                                    ("thvp", dg.thvp(game, w, v), h.T @ v)):
                err = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(
                    want))
                checks.expect(err < 1e-6, f"fd_general: FD {name} relative "
                                          f"error {err:.2e}")
        return {"runs": iters}


WORKLOADS = {w.name: w for w in (Presets(), Wide(), FdGeneral())}
