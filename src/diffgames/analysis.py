"""Structure analysis: splitting game dynamics into gradient-like and
rotational parts, classifying games and fixed points, and the alignment
machinery that picks the sign of the adjustment weight.

The central object is the split of the game Hessian H into its symmetric
part S (a potential force) and antisymmetric part A (a rotational force).
Both the game class and the stability of fixed points are read off S and A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .derivatives import full_hessian, simultaneous_gradient, thvp
from .dynamics import AdjusterSpec, _aligned_signs, check_epsilon
from .games import Game, QuadraticGame

Array = np.ndarray

STABLE = "stable"
UNSTABLE = "unstable"
INDEFINITE = "indefinite"

POTENTIAL = "potential"
HAMILTONIAN = "hamiltonian"
GENERAL = "general"

# Neighborhood probing for non-quadratic games: the stability condition is
# checked at the point plus this many perturbed samples at this radius.
_NEIGHBORHOOD_SAMPLES = 8
_NEIGHBORHOOD_RADIUS = 1e-3

# A point is fixed when |xi(w)| is at most this.
_FIXED_POINT_TOL = 1e-8


class NotAFixedPointError(ValueError):
    """Raised when a fixed-point query is made away from a zero of the field."""


@dataclass(frozen=True)
class Decomposition:
    """Symmetric/antisymmetric split of a (game) Hessian.

    ``s_eigenvalues`` are the eigenvalues of the symmetric part, sorted
    descending.  ``additive_condition_number`` is their spread
    sigma_max - sigma_min; it is zero exactly when S is a multiple of the
    identity, in which case S commutes with every matrix.
    """

    hessian: Array
    symmetric: Array
    antisymmetric: Array
    s_eigenvalues: Array
    additive_condition_number: float


@dataclass(frozen=True)
class GameClass:
    """Classification over sampled points with the worst-case deviations."""

    kind: str  # POTENTIAL | HAMILTONIAN | GENERAL
    max_antisymmetric: float  # max |A|_inf over the samples
    max_symmetric: float      # max |S|_inf over the samples


@dataclass(frozen=True)
class FixedPointReport:
    w: Array
    xi_norm: float
    stability: str  # STABLE | UNSTABLE | INDEFINITE
    is_local_nash: bool
    probe_value: float  # <xi, grad 1/2|xi|^2> averaged just off the point


def helmholtz_split(hessian) -> Decomposition:
    """Split a square matrix into symmetric and antisymmetric parts.

    The split M = S + A with S = (M + M')/2 and A = (M - M')/2 is exact and
    unique, and is preserved by any orthogonal change of coordinates.
    """
    h = np.asarray(hessian, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix has non-finite entries")
    sym = 0.5 * (h + h.T)
    anti = 0.5 * (h - h.T)
    eigs = np.linalg.eigvalsh(sym)[::-1]
    kappa = float(eigs[0] - eigs[-1])
    return Decomposition(
        hessian=h, symmetric=sym, antisymmetric=anti,
        s_eigenvalues=eigs, additive_condition_number=kappa,
    )


def _inf_norm(m: Array) -> float:
    return float(np.max(np.abs(m), initial=0.0))


def classify_game(game: Game, sample_points,
                  tol: float | None = None) -> GameClass:
    """Classify a game over sample points.

    Potential when the antisymmetric Hessian part vanishes at every sample,
    hamiltonian when the symmetric part does, general otherwise.  The default
    tolerance is 1e-9 times the largest Hessian entry seen.
    """
    points = [np.asarray(p, dtype=float).reshape(-1) for p in sample_points]
    if not points:
        raise ValueError("need at least one sample point")
    return _game_class([_split(game, w) for w in points], tol)


def _split(game: Game, w: Array) -> Decomposition:
    return helmholtz_split(full_hessian(game, w))


def _game_class(splits, tol: float | None) -> GameClass:
    """``classify_game`` from the splits at its sample points."""
    max_a = max_s = max_h = 0.0
    for dec in splits:
        max_a = max(max_a, _inf_norm(dec.antisymmetric))
        max_s = max(max_s, _inf_norm(dec.symmetric))
        max_h = max(max_h, _inf_norm(dec.hessian))
    if tol is None:
        tol = 1e-9 * max(max_h, 1e-300)
    if max_a <= tol:
        kind = POTENTIAL
    elif max_s <= tol:
        kind = HAMILTONIAN
    else:
        kind = GENERAL
    return GameClass(kind=kind, max_antisymmetric=max_a, max_symmetric=max_s)


def stability_probe(game: Game, w) -> float:
    """The scalar <xi, H' xi> = xi' S xi.

    For xi != 0 its sign witnesses the definiteness of S: nonnegative where
    S is positive semidefinite, negative where S is negative definite, and
    identically zero in games with no symmetric part.
    """
    xi = simultaneous_gradient(game, w).xi
    return float(xi @ thvp(game, w, xi))


def _psd_tolerance(eigs: Array) -> float:
    return 1e-9 * max(1.0, float(eigs[0] - eigs[-1]))


def _verdict(dec: Decomposition) -> str:
    tol = _psd_tolerance(dec.s_eigenvalues)
    if dec.s_eigenvalues[-1] >= -tol:
        return STABLE
    if dec.s_eigenvalues[0] < -tol:
        return UNSTABLE
    return INDEFINITE


def _neighborhood(game: Game, w: Array) -> tuple[list, list]:
    """The points whose S decides the stability of w, and the nearby
    samples that average the probe (the same draws at every call).

    Quadratic games have a constant S, so w alone decides; other games are
    probed at w and at each nearby sample.
    """
    rng = np.random.default_rng(0)
    nearby = [w + _NEIGHBORHOOD_RADIUS * rng.standard_normal(w.size)
              for _ in range(_NEIGHBORHOOD_SAMPLES)]
    return ([w] if isinstance(game, QuadraticGame) else [w] + nearby), nearby


def classify_fixed_point(
        game: Game, w,
        fixed_point_tol: float = _FIXED_POINT_TOL) -> FixedPointReport:
    """Stability and local-Nash status of a fixed point.

    Raises NotAFixedPointError when ``|xi(w)| > fixed_point_tol``.  Stability
    comes from the eigenvalues of S: all nonnegative (within a spread-scaled
    tolerance) is stable, all negative is unstable, otherwise indefinite.
    Quadratic games have a constant S, so the point itself decides; other
    games are probed at the point plus a few nearby samples, and the verdict
    must agree on all of them.  ``is_local_nash`` checks that each player's
    own diagonal block of S is positive semidefinite.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    ev = simultaneous_gradient(game, w)
    xi_norm = float(np.sqrt(ev.norm_sq))
    if xi_norm > fixed_point_tol:
        raise NotAFixedPointError(
            f"|xi(w)| = {xi_norm:.3e} exceeds the fixed-point tolerance "
            f"{fixed_point_tol:.3e}"
        )

    deciding, nearby = _neighborhood(game, w)
    splits = [_split(game, p) for p in deciding]
    return _fixed_point_report(game, w, xi_norm, splits, nearby)


def _fixed_point_report(game: Game, w: Array, xi_norm: float, splits,
                        nearby) -> FixedPointReport:
    """``classify_fixed_point`` at a checked fixed point w, from the splits
    at the deciding points of ``_neighborhood`` (w first).

    The probe at each nearby sample is read off the full Hessian there (a
    quadratic game's is the one at w): ``xi' (H' xi)``, with the fields at
    all samples in one batch, what ``stability_probe`` computes with an
    analytic Hessian.
    """
    dec = splits[0]
    stability = _verdict(dec)
    # S varies with w: the verdict must hold throughout the neighborhood.
    if any(_verdict(other) != stability for other in splits[1:]):
        stability = INDEFINITE

    tol = _psd_tolerance(dec.s_eigenvalues)
    is_nash = True
    for i in range(game.num_players):
        blk = game.partition.block(i)
        block_eigs = np.linalg.eigvalsh(dec.symmetric[blk, blk])
        if block_eigs[0] < -tol:
            is_nash = False
            break

    at_nearby = splits[1:] or splits * len(nearby)
    probes = [float(xi @ (near.hessian.T @ xi))
              for xi, near in zip(game.batch_field(np.array(nearby)),
                                  at_nearby)]
    return FixedPointReport(w=w, xi_norm=xi_norm, stability=stability,
                            is_local_nash=is_nash,
                            probe_value=float(np.mean(probes)))


def _classify_point(game: Game, w: Array, xi_norm: float):
    """The game class over w and its neighbourhood, the split at w, and the
    fixed-point report (None unless ``xi_norm`` is within the default
    tolerance of ``classify_fixed_point``), with each full Hessian built
    once.

    The class equals ``classify_game``'s on the deciding points of
    ``_neighborhood``; the report is what ``classify_fixed_point`` returns.
    """
    deciding, nearby = _neighborhood(game, w)
    splits = [_split(game, p) for p in deciding]
    report = (_fixed_point_report(game, w, xi_norm, splits, nearby)
              if xi_norm <= _FIXED_POINT_TOL else None)
    return _game_class(splits, None), splits[0], report


def alignment_sign(xi, at_xi, grad_h,
                   epsilon: float = AdjusterSpec.epsilon) -> float:
    """Sign choice for the adjustment weight: the sign the aligned sga rule
    applies at a point with field xi, antisymmetric adjustment at_xi and
    grad_h = H' xi, computed by the engine's own per-row code.

    Returns the sign of ``(1/d) <xi, grad_h> <at_xi, grad_h> + epsilon``,
    with sign(0) defined as +1.  The epsilon bias breaks ties toward stable
    fixed points; note the product scales like |xi|^4, so a fixed epsilon
    dominates near fixed points (epsilon is exposed for exactly that reason).
    Raises ValueError for an epsilon that is negative or NaN, as
    ``AdjusterSpec`` does.
    """
    check_epsilon(epsilon)
    # One contiguous row each: BLAS may sum a strided row in another order.
    rows = [np.array(v, dtype=float).reshape(1, -1)
            for v in (xi, at_xi, grad_h)]
    return float(_aligned_signs(*rows, epsilon)[0])


def infinitesimal_alignment(u, v, w) -> float:
    """Derivative at lambda = 0 of cos^2 of the angle between u + lambda v
    and w, in closed form:

        2 <u,w> (<v,w> |u|^2 - <u,w> <u,v>) / (|u|^4 |w|^2)

    Positive values mean a small positive lambda bends u toward w when they
    already point the same way, or away from w when they do not.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    w = np.asarray(w, dtype=float).reshape(-1)
    uu = float(u @ u)
    ww = float(w @ w)
    if uu == 0.0 or ww == 0.0:
        raise ValueError("u and w must be nonzero")
    uw = float(u @ w)
    vw = float(v @ w)
    uv = float(u @ v)
    return 2.0 * uw * (vw * uu - uw * uv) / (uu * uu * ww)
