"""Learning-rate sweeps, preset reproductions, and result serialization.

A sweep crosses a list of update rules with a learning-rate grid on one
catalog game, records the outcome of each cell, and attaches the exact
spectral-oracle prediction wherever the rule admits one.  Every random
draw is derived from the sweep seed up front.  The cells of one rule then
step together as one ``(C, d)`` array through the Euler engine of
``dynamics``, whose rows each follow the arithmetic of a lone ``run``, so
a sweep's bytes equal those of its cells run one at a time.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .derivatives import hvp, simultaneous_gradient, thvp
from .dynamics import (CONVERGED, AdjusterSpec, StopCriteria, _euler,
                       check_eta, spectral_oracle)
from .games import as_point, catalog_game, default_start

Array = np.ndarray

SCHEMA_VERSION = 1
TRAILING_LOSS_CAP = 5.0

CSV_COLUMNS = ("game", "adjuster", "lambda", "eta", "seed", "outcome",
               "iters", "trailing_loss", "spectral_radius")

PRESETS = ("fig3", "fig4", "fig7")


@dataclass(frozen=True)
class RandomBall:
    """Start-point policy: one seeded uniform draw from a ball per eta,
    shared by all adjusters at that eta so rules are compared fairly."""

    radius: float = 1.0

    def __post_init__(self):
        if not 0 <= self.radius < np.inf:
            raise ValueError(
                f"radius must be nonnegative and finite, got {self.radius}")


@dataclass
class SweepConfig:
    """One sweep.  Building it builds the game, so an unknown game or
    parameter fails here; ``w0=None`` becomes the game's default start
    point, and every fixed start point must be finite and have the game's
    dimension."""

    game: str
    adjusters: tuple[AdjusterSpec, ...]
    etas: tuple[float, ...]
    game_params: dict = field(default_factory=dict)
    w0: tuple | RandomBall | None = None
    stop: StopCriteria = StopCriteria()
    seed: int = 0

    def __post_init__(self):
        self.adjusters = tuple(self.adjusters)
        self.etas = tuple(float(e) for e in self.etas)
        if not self.etas:
            raise ValueError("etas must be a nonempty list of positive rates")
        for eta in self.etas:
            check_eta(eta)
        partition = catalog_game(self.game, **self.game_params).partition
        if self.w0 is None:
            self.w0 = (tuple(default_start(partition.total)),)
        if not isinstance(self.w0, RandomBall):
            self.w0 = tuple(tuple(as_point(partition, p).tolist())
                            for p in self.w0)
            if not self.w0:
                raise ValueError("w0 must list at least one start point")


@dataclass(frozen=True)
class SweepCell:
    game: str
    adjuster: str
    lam: float
    eta: float
    seed: int
    outcome: str
    iters: int
    trailing_loss: float
    spectral_radius: float | None


@dataclass
class SweepResult:
    cells: list[SweepCell]


def _ball_point(rng: np.random.Generator, dim: int, radius: float) -> Array:
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return radius * rng.random() ** (1.0 / dim) * v


def _start_points(config: SweepConfig, dim: int):
    """Start points per eta index; each is a list (many for fixed w0 lists,
    exactly one for the random-ball policy)."""
    if isinstance(config.w0, RandomBall):
        rng = np.random.default_rng(config.seed)
        return [[_ball_point(rng, dim, config.w0.radius)]
                for _ in config.etas]
    fixed = [np.asarray(p, dtype=float) for p in config.w0]
    return [fixed for _ in config.etas]


def _trailing_loss(mean_abs: Array, window: int) -> float:
    if mean_abs.size == 0:
        return TRAILING_LOSS_CAP
    tail = mean_abs[-min(window, mean_abs.size):]
    value = float(np.mean(tail))
    if not np.isfinite(value):
        return TRAILING_LOSS_CAP
    return min(value, TRAILING_LOSS_CAP)


def _oracle_rho(spec: AdjusterSpec, game, eta: float) -> float | None:
    try:
        return spectral_oracle(spec, game, eta).spectral_radius
    except ValueError:
        return None


def sweep(config: SweepConfig) -> SweepResult:
    """Run every (adjuster, eta, start point) cell of the config.

    Each adjuster's cells step together through the Euler engine behind
    ``run``, so every cell equals ``run`` on its own start point and rate,
    bit for bit.  A cell that blows up numerically is recorded as diverged;
    any exception is a fault and propagates.  Cells come out in the
    configured order: adjuster, then eta, then start point.
    """
    game = catalog_game(config.game, **config.game_params)
    starts = _start_points(config, game.dim)

    cells = []
    for spec in config.adjusters:
        rhos = [_oracle_rho(spec, game, eta) for eta in config.etas]
        grid = [(ei, w0) for ei in range(len(config.etas))
                for w0 in starts[ei]]
        ends, _ = _euler(spec, game, [w0 for _, w0 in grid],
                         [config.etas[ei] for ei, _ in grid], config.stop)
        for (ei, _), end in zip(grid, ends):
            cells.append(SweepCell(
                game=config.game, adjuster=spec.kind, lam=spec.lam,
                eta=config.etas[ei], seed=config.seed, outcome=end.outcome,
                iters=(end.iteration if end.outcome == CONVERGED
                       else config.stop.max_iters),
                trailing_loss=_trailing_loss(end.window,
                                             config.stop.loss_window),
                spectral_radius=rhos[ei],
            ))
    return SweepResult(cells=cells)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_configs(name: str, seed: int = 0) -> tuple[SweepConfig, ...]:
    """The built-in reproduction presets.

    fig3: weak-attractor game, plain descent vs sga (lam 0.1) at three rates.
    fig4: scalar bilinear game, sga (lam 1) vs omd on a 50-point log grid.
    fig7: the four-player game at both damping levels, sga vs omd, linear
          grid with a 5000-iteration cutoff.
    """
    if name == "fig3":
        return (SweepConfig(
            game="fig3_weak_attractor",
            adjusters=(AdjusterSpec("simgd"), AdjusterSpec("sga", lam=0.1)),
            etas=(0.01, 0.032, 0.1),
            stop=StopCriteria(max_iters=10000),
            seed=seed,
        ),)
    if name == "fig4":
        return (SweepConfig(
            game="fig4_bilinear",
            game_params={"dim": 1},
            adjusters=(AdjusterSpec("sga", lam=1.0), AdjusterSpec("omd")),
            etas=tuple(np.geomspace(0.01, 1.75, 50)),
            stop=StopCriteria(max_iters=250),
            seed=seed,
        ),)
    if name == "fig7":
        return tuple(SweepConfig(
            game="fig7_four_player",
            game_params={"epsilon": eps},
            adjusters=(AdjusterSpec("sga", lam=1.0), AdjusterSpec("omd")),
            etas=tuple(np.linspace(0.025, 0.5, 20)),
            w0=RandomBall(1.0),
            stop=StopCriteria(max_iters=5000),
            seed=seed,
        ) for eps in (0.01, 0.0))
    raise ValueError(f"unknown preset {name!r}; one of {PRESETS}")


def run_preset(name: str, seed: int = 0) -> SweepResult:
    cells = []
    for config in preset_configs(name, seed=seed):
        cells.extend(sweep(config).cells)
    return SweepResult(cells=cells)


# ---------------------------------------------------------------------------
# Point analysis
# ---------------------------------------------------------------------------

def analyze_point(game, w, epsilon: float = 0.1,
                  fixed_point_tol: float = 1e-8) -> dict:
    """Everything the analysis layer knows about one point, JSON-ready.

    Bundles the field, the symmetric/antisymmetric split with its eigendata,
    the game classification, the definiteness probe, and the alignment sign;
    when the point is (numerically) fixed, the stability report is included.
    """
    w = as_point(game.partition, w)
    ev = simultaneous_gradient(game, w)
    xi = ev.xi
    grad_h = thvp(game, w, xi)
    at_xi = 0.5 * (grad_h - hvp(game, w, xi))

    xi_norm = float(np.sqrt(ev.norm_sq))
    # Sampled at w and, for a non-quadratic game, 8 points 1e-3 around it:
    # each full Hessian serves the class, the split and the report.
    game_class, dec, report = analysis._classify_point(game, w, xi_norm,
                                                       fixed_point_tol)

    bundle = {
        "schema_version": SCHEMA_VERSION,
        "at": w.tolist(),
        "xi": xi.tolist(),
        "xi_norm": xi_norm,
        "hamiltonian": 0.5 * ev.norm_sq,
        "losses": game.loss_vector(w).tolist(),
        "game_class": game_class.kind,
        "max_antisymmetric": game_class.max_antisymmetric,
        "max_symmetric": game_class.max_symmetric,
        "s_eigenvalues": dec.s_eigenvalues.tolist(),
        "additive_condition_number": dec.additive_condition_number,
        "probe": float(xi @ grad_h),
        "alignment_sign": analysis.alignment_sign(xi, at_xi, grad_h, epsilon),
        "is_fixed_point": report is not None,
        "stability": None,
        "local_nash": None,
    }
    if report is not None:
        bundle["stability"] = report.stability
        bundle["local_nash"] = report.is_local_nash
        bundle["probe"] = report.probe_value
    return bundle


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _cell_record(cell: SweepCell) -> dict:
    return {
        "game": cell.game,
        "adjuster": cell.adjuster,
        "lambda": cell.lam,
        "eta": cell.eta,
        "seed": cell.seed,
        "outcome": cell.outcome,
        "iters": cell.iters,
        "trailing_loss": cell.trailing_loss,
        "spectral_radius": cell.spectral_radius,
    }


def serialize(result: SweepResult, format: str = "csv") -> bytes:
    """Encode a sweep result as CSV or JSON bytes.

    The CSV column order is fixed; spectral_radius is empty where no oracle
    applies.  The JSON mirrors the same records under a schema version.
    """
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for cell in result.cells:
            rec = _cell_record(cell)
            writer.writerow([
                rec["game"], rec["adjuster"], repr(rec["lambda"]),
                repr(rec["eta"]), rec["seed"], rec["outcome"], rec["iters"],
                repr(rec["trailing_loss"]),
                "" if rec["spectral_radius"] is None
                else repr(rec["spectral_radius"]),
            ])
        return buf.getvalue().encode()
    if format == "json":
        doc = {"schema_version": SCHEMA_VERSION,
               "cells": [_cell_record(c) for c in result.cells]}
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise ValueError(f"unknown format {format!r}; use 'csv' or 'json'")


# ---------------------------------------------------------------------------
# Config (de)serialization for the command line
# ---------------------------------------------------------------------------

def _etas_from_json(spec) -> tuple[float, ...]:
    if isinstance(spec, dict):
        kind = spec.get("kind", "log")
        start, stop_, count = spec["start"], spec["stop"], int(spec["count"])
        if kind == "log":
            return tuple(np.geomspace(start, stop_, count))
        if kind == "linear":
            return tuple(np.linspace(start, stop_, count))
        raise ValueError(f"unknown eta grid kind {kind!r}")
    return tuple(float(e) for e in spec)


# Stop criteria read from JSON as integers; the others are floats.
_COUNTS = ("max_iters", "loss_window")


def config_from_json(doc: dict) -> SweepConfig:
    """Build a SweepConfig from its JSON form (see README for the schema).

    Unknown keys, such as the ``jobs`` of older configs, are ignored; stop
    criteria not given (or null) keep their ``StopCriteria`` defaults.
    """
    adjusters = tuple(
        AdjusterSpec(kind=a["kind"], lam=float(a.get("lambda", 1.0)),
                     epsilon=float(a.get("epsilon", 0.1)))
        for a in doc["adjusters"]
    )
    w0 = doc.get("w0")
    if isinstance(w0, dict):
        w0 = RandomBall(radius=float(w0["random_ball"]))
    stop_doc = doc.get("stop", {})
    stop = dataclasses.replace(StopCriteria(), **{
        f.name: (int if f.name in _COUNTS else float)(stop_doc[f.name])
        for f in dataclasses.fields(StopCriteria)
        if stop_doc.get(f.name) is not None})
    return SweepConfig(
        game=doc["game"],
        game_params=dict(doc.get("game_params", {})),
        adjusters=adjusters,
        etas=_etas_from_json(doc["etas"]),
        w0=w0,
        stop=stop,
        seed=int(doc.get("seed", 0)),
    )


def config_to_json(config: SweepConfig) -> dict:
    return {
        "game": config.game,
        "game_params": dict(config.game_params),
        "adjusters": [
            {"kind": a.kind, "lambda": a.lam, "epsilon": a.epsilon}
            for a in config.adjusters
        ],
        "etas": list(config.etas),
        "w0": ({"random_ball": config.w0.radius}
               if isinstance(config.w0, RandomBall)
               else [list(p) for p in config.w0]),
        "stop": {
            "max_iters": config.stop.max_iters,
            "loss_window": config.stop.loss_window,
            "loss_threshold": config.stop.loss_threshold,
            "divergence_norm": config.stop.divergence_norm,
            "xi_threshold": config.stop.xi_threshold,
        },
        "seed": config.seed,
    }
