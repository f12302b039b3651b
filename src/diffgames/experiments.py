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
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .derivatives import _hvp, _thvp, simultaneous_gradient
from .dynamics import (CONVERGED, AdjusterSpec, StopCriteria, _aligned_signs,
                       _euler, _spectral_radii, _user, _why_no_oracle,
                       check_epsilon, check_eta)
from .games import _number, _whole, as_point, catalog_game, default_start

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
        if not 0 <= _number(self.radius, "radius") < np.inf:
            raise ValueError(
                f"radius must be nonnegative and finite, got {self.radius}")


def _listed(values, what: str) -> tuple:
    """A config field that lists things, as a tuple; ``what`` names it in
    the error for a value that lists nothing (None, a number)."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{what} must be a list, got {values!r}") from None


@dataclass
class SweepConfig:
    """One sweep.  Building it builds the game, so an unknown game or
    parameter fails here; ``w0=None`` becomes the game's default start
    point, every fixed start point must be finite and have the game's
    dimension, and the seed must be a whole number >= 0 (it becomes an
    int).  A field of the wrong kind (a game that is not a name, an
    adjuster that is not an ``AdjusterSpec``, a ``stop`` that is not a
    ``StopCriteria``, ``game_params`` that is not a mapping, ``etas`` or
    ``w0`` that lists nothing) raises a ValueError that names the
    field, and so does an empty list of adjusters, rates or start
    points."""

    game: str
    adjusters: tuple[AdjusterSpec, ...]
    etas: tuple[float, ...]
    game_params: dict = field(default_factory=dict)
    w0: tuple | RandomBall | None = None
    stop: StopCriteria = StopCriteria()
    seed: int = 0

    def __post_init__(self):
        self.seed = _whole(self.seed, "seed")
        self.adjusters = _listed(self.adjusters, "adjusters")
        if not self.adjusters:
            raise ValueError("adjusters must list at least one update rule")
        for spec in self.adjusters:
            if not isinstance(spec, AdjusterSpec):
                raise ValueError(f"adjusters must hold AdjusterSpecs, got "
                                 f"{spec!r}")
        self.etas = tuple(map(check_eta, _listed(self.etas, "etas")))
        if not self.etas:
            raise ValueError("etas must be a nonempty list of positive rates")
        if not isinstance(self.stop, StopCriteria):
            raise ValueError(f"stop must be a StopCriteria, got {self.stop!r}")
        if not isinstance(self.game, str):
            raise ValueError(f"game must be a catalog name, got {self.game!r}")
        if not isinstance(self.game_params, Mapping):
            raise ValueError(f"game_params must be a mapping, got "
                             f"{self.game_params!r}")
        partition = catalog_game(self.game, **self.game_params).partition
        if self.w0 is None:
            self.w0 = (tuple(default_start(partition.total)),)
        if not isinstance(self.w0, RandomBall):
            self.w0 = tuple(tuple(as_point(partition, p).tolist())
                            for p in _listed(self.w0, "w0"))
            if not self.w0:
                raise ValueError("w0 must list at least one start point")


@dataclass(frozen=True)
class SweepCell:
    """One cell of a sweep; its fields are the CSV columns, in order."""

    game: str
    adjuster: str
    lam: float
    eta: float
    seed: int
    outcome: str
    iters: int
    trailing_loss: float
    spectral_radius: float | None


def _ball_point(rng: np.random.Generator, dim: int, radius: float) -> Array:
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    return radius * rng.random() ** (1.0 / dim) * v


def _start_points(config: SweepConfig, dim: int):
    """Start points per eta index; each is a sequence (many for fixed w0
    lists, exactly one for the random-ball policy)."""
    if isinstance(config.w0, RandomBall):
        rng = np.random.default_rng(config.seed)
        return [[_ball_point(rng, dim, config.w0.radius)]
                for _ in config.etas]
    return [config.w0 for _ in config.etas]


def _trailing_loss(mean_abs: Array, window: int) -> float:
    """The mean of the last ``window`` entries of ``mean_abs``, capped at
    ``TRAILING_LOSS_CAP``; a mean that overflows or is NaN reads the cap.
    Its callers (``sweep``, once per rule, and the CLI's ``run``) turn
    NumPy's overflow and invalid-value warnings off around it, by the
    quiet rule of the ``dynamics`` docstring."""
    if mean_abs.size == 0:
        return TRAILING_LOSS_CAP
    tail = mean_abs[-min(window, mean_abs.size):]
    value = float(np.mean(tail))
    if not np.isfinite(value):
        return TRAILING_LOSS_CAP
    return min(value, TRAILING_LOSS_CAP)


def sweep(config: SweepConfig) -> list[SweepCell]:
    """Run every (adjuster, eta, start point) cell of the config.

    Each adjuster's cells step together through the Euler engine behind
    ``run``, so every cell equals ``run`` on its own start point and rate,
    bit for bit.  A cell that blows up numerically is recorded as diverged;
    any exception is a fault and propagates, the ValueError of a spectral
    oracle that overflows included (named at the first such rate of the
    grid).  A rule takes the spectrum of all its rates in one stacked
    eigendecomposition call (per 256 KiB of matrices), each radius bit for
    bit what a lone ``spectral_oracle`` returns; a rule the oracle does not
    apply to gets no spectral radius.  Cells come out in the configured
    order: adjuster, then eta, then start point.
    """
    game = catalog_game(config.game, **config.game_params)
    starts = _start_points(config, game.dim)

    cells = []
    for spec in config.adjusters:
        rhos = (_spectral_radii(spec, game.hessian_matrix, config.etas)
                if _why_no_oracle(spec, game) is None
                else [None] * len(config.etas))
        grid = [(ei, w0) for ei in range(len(config.etas))
                for w0 in starts[ei]]
        ends, _ = _euler(spec, game, [w0 for _, w0 in grid],
                         [config.etas[ei] for ei, _ in grid], config.stop)
        with np.errstate(over="ignore", invalid="ignore"):  # trailing means
            for (ei, _), end in zip(grid, ends):
                cells.append(SweepCell(
                    game=config.game, adjuster=spec.kind, lam=spec.lam,
                    eta=config.etas[ei], seed=config.seed,
                    outcome=end.outcome,
                    iters=(end.iteration if end.outcome == CONVERGED
                           else config.stop.max_iters),
                    trailing_loss=_trailing_loss(end.window,
                                                 config.stop.loss_window),
                    spectral_radius=rhos[ei],
                ))
    return cells


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def preset_configs(name: str,
                   seed: int = SweepConfig.seed) -> tuple[SweepConfig, ...]:
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


def run_preset(name: str, seed: int = SweepConfig.seed) -> list[SweepCell]:
    return [cell for config in preset_configs(name, seed=seed)
            for cell in sweep(config)]


# ---------------------------------------------------------------------------
# Point analysis
# ---------------------------------------------------------------------------

def analyze_point(game, w, epsilon: float = AdjusterSpec.epsilon) -> dict:
    """Everything the analysis layer knows about one point, JSON-ready.

    Bundles the field, the symmetric/antisymmetric split with its eigendata,
    the game classification, the definiteness probe, and the alignment sign;
    when the point is fixed (within the tolerance of
    ``classify_fixed_point``), the stability report is included.  Raises
    ValueError for a point that ``as_point`` would reject, for an epsilon
    that ``AdjusterSpec`` would, for a point where the field is not
    finite, before any Hessian or loss is taken there, and for a point
    where another entry of the report is not finite (a loss, the field's
    norm, the split's eigenvalues), naming the first such entry: the
    report is JSON, which has no inf or NaN.  The report keeps the
    engine's quiet rule (see ``dynamics``).
    """
    w = as_point(game.partition, w)
    check_epsilon(epsilon)
    report = _user(game, _point_report)
    with np.errstate(over="ignore", invalid="ignore"):
        bundle = report(game, w, epsilon)
    for key, value in bundle.items():
        if isinstance(value, (float, list)) and not np.isfinite(value).all():
            raise ValueError(f"the report's {key!r} at {w.tolist()} is not "
                             f"finite: {value}")
    return bundle


def _point_report(game, w: Array, epsilon: float) -> dict:
    """``analyze_point``'s report at a checked point, its entries not yet
    checked, but the field checked before any Hessian or loss is taken."""
    xi = simultaneous_gradient(game, w)
    if not np.isfinite(xi).all():
        raise ValueError(f"the field at {w.tolist()} is not finite: "
                         f"{xi.tolist()}")
    grad_h = _thvp(game, w, xi)
    at_xi = 0.5 * (grad_h - _hvp(game, w, xi))

    norm_sq = float(xi @ xi)
    xi_norm = float(np.sqrt(norm_sq))
    # Sampled at w and, for a non-quadratic game, 8 points 1e-3 around it:
    # each full Hessian serves the class, the split and the report.
    game_class, dec, report = analysis._classify_point(game, w, xi_norm)
    # ``alignment_sign`` without its checks, of vectors computed here: the
    # engine's sign of one contiguous column each.
    columns = [np.array(v, dtype=float)[None, :, None]
               for v in (xi, at_xi, grad_h)]

    bundle = {
        "schema_version": SCHEMA_VERSION,
        "at": w.tolist(),
        "xi": xi.tolist(),
        "xi_norm": xi_norm,
        "hamiltonian": 0.5 * norm_sq,
        "losses": game.loss_vector(w).tolist(),
        "game_class": game_class.kind,
        "max_antisymmetric": game_class.max_antisymmetric,
        "max_symmetric": game_class.max_symmetric,
        "s_eigenvalues": dec.s_eigenvalues.tolist(),
        "additive_condition_number": dec.additive_condition_number,
        "probe": float(xi @ grad_h),
        "alignment_sign": float(_aligned_signs(*columns, epsilon)[0, 0]),
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
    return dict(zip(CSV_COLUMNS, vars(cell).values(), strict=True))


def _csv_bytes(header, rows) -> bytes:
    """The package's one CSV encoder: a header row, then the rows, each
    line ending in a newline.  The writer spells a float as its repr and
    None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _json_bytes(doc) -> bytes:
    """The package's one JSON encoder: indented by two, newline-ended.
    JSON has no inf or NaN, so a float that is not finite is a
    ValueError, not the ``Infinity`` that ``json`` would write."""
    return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode()


def serialize(cells: list[SweepCell], format: str = "csv") -> bytes:
    """Encode sweep cells as CSV or JSON bytes.

    The CSV column order is fixed; spectral_radius is empty where no oracle
    applies.  The JSON mirrors the same records under a schema version.
    """
    if format == "csv":
        return _csv_bytes(CSV_COLUMNS,
                          (_cell_record(c).values() for c in cells))
    if format == "json":
        return _json_bytes({"schema_version": SCHEMA_VERSION,
                            "cells": [_cell_record(c) for c in cells]})
    raise ValueError(f"unknown format {format!r}; use 'csv' or 'json'")


# ---------------------------------------------------------------------------
# Config (de)serialization for the command line
# ---------------------------------------------------------------------------

def _key(*keys) -> str:
    """How an error names a config key: ``config key 'stop': 'max_iters'``."""
    return f"config key {': '.join(map(repr, keys))}"


def _etas_from_json(spec) -> tuple[float, ...]:
    """An eta list, or a ``log`` (default) or ``linear`` grid object: the
    one place a sweep's eta grid is built."""
    if not isinstance(spec, dict):
        return tuple(_number(e, _key("etas")) for e in spec)
    kind = spec.get("kind", "log")
    space = {"log": np.geomspace, "linear": np.linspace}.get(kind)
    if space is None:
        raise ValueError(f"{_key('etas')}: unknown eta grid kind {kind!r}")
    ends = []
    for end in ("start", "stop"):
        value = _number(spec[end], _key("etas", end))
        # Both ends are rates; NumPy would reject a zero end without
        # naming it and warn on an infinite one.
        if not 0 < value < np.inf:
            raise ValueError(f"{_key('etas', end)} must be positive and "
                             f"finite, got {spec[end]!r}")
        ends.append(value)
    return tuple(space(*ends, _whole(spec["count"], _key("etas", "count"),
                                     least=1)))


def _params_from_json(doc) -> dict:
    """A catalog game's parameters: a JSON object, never a list of pairs,
    which ``dict`` would read as one."""
    if not isinstance(doc, dict):
        raise ValueError(f"{_key('game_params')} must be a JSON object, "
                         f"got {doc!r}")
    return doc


def _adjuster_from_json(doc) -> AdjusterSpec:
    return AdjusterSpec(kind=doc["kind"], **{
        name: _number(doc[key], _key("adjusters", key))
        for key, name in (("lambda", "lam"), ("epsilon", "epsilon"))
        if doc.get(key) is not None})


# Stop criteria by field name, with the type their JSON values are read as.
_STOP_FIELDS = {f.name: int if isinstance(f.default, int) else float
                for f in dataclasses.fields(StopCriteria)}


def _stop_from_json(doc) -> StopCriteria:
    """Stop criteria, each value read as its field's type; the error of a
    check ``StopCriteria`` makes of the values names the key too."""
    fields = {
        name: (_whole(doc[name], _key("stop", name), least=1)
               if kind is int else _number(doc[name], _key("stop", name)))
        for name, kind in _STOP_FIELDS.items() if doc.get(name) is not None}
    try:
        return StopCriteria(**fields)
    except ValueError as exc:
        raise ValueError(f"{_key('stop')}: {exc}") from None


# How the value of each key of a config's JSON form becomes the
# SweepConfig field of the same name.
_DECODERS = {
    "game": str,
    "game_params": _params_from_json,
    "adjusters": lambda doc: tuple(map(_adjuster_from_json, doc)),
    "etas": _etas_from_json,
    "w0": lambda doc: (RandomBall(_number(doc["random_ball"],
                                          _key("w0", "random_ball")))
                       if isinstance(doc, dict) else
                       tuple(tuple(_number(x, _key("w0")) for x in p)
                             for p in doc)),
    "stop": _stop_from_json,
    "seed": lambda doc: _whole(doc, _key("seed")),
}


def config_from_json(doc: dict) -> SweepConfig:
    """Build a SweepConfig from its JSON form (see README for the schema).

    This is the one decoder of a sweep description: ``diffgames sweep``
    turns its flags into this form too.  A key that is missing or null
    keeps its dataclass default (the ``AdjusterSpec`` weights,
    ``SweepConfig.seed``, the ``StopCriteria``); unknown keys, such as the
    ``jobs`` of older configs, are ignored.  A value of a JSON type that
    cannot serve (a list where an object or a number belongs, a null radius,
    a string or a boolean for a real number), an object without a key it
    needs, a seed that is not a whole number >= 0, and a count or
    iteration number that is not one >= 1 raise a ValueError that names
    the key, as do the stop values that ``StopCriteria`` rejects (a
    negative threshold, a ``loss_window`` past ``max_iters``); any other
    bad value raises the ValueError of the check it fails.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a sweep config is a JSON object, got {doc!r}")
    for key in ("game", "adjusters", "etas"):
        if doc.get(key) is None:
            raise ValueError(f"config key {key!r} is required")
    fields = {}
    for key, decode in _DECODERS.items():
        if doc.get(key) is not None:
            try:
                fields[key] = decode(doc[key])
            except (AttributeError, TypeError, KeyError) as exc:
                what = f"missing {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"config key {key!r}: {what}") from None
    return SweepConfig(**fields)
