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

from .derivatives import _thvp, full_hessian, simultaneous_gradient
from .dynamics import AdjusterSpec, _aligned_signs, check_epsilon
from .games import Game, QuadraticGame, _as_floats, _as_vector, as_point

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
    xi_norm: float
    stability: str  # STABLE | UNSTABLE | INDEFINITE
    is_local_nash: bool
    probe_value: float  # <xi, grad 1/2|xi|^2> averaged just off the point


def helmholtz_split(hessian) -> Decomposition:
    """Split a square matrix into symmetric and antisymmetric parts.

    The split M = S + A with S = (M + M')/2 and A = (M - M')/2 is exact and
    unique, and is preserved by any orthogonal change of coordinates.
    Raises ValueError for a matrix that is not square, empty or not
    finite, or that holds an entry that is not a number (a boolean, say).
    """
    h = _as_floats(hessian, "hessian")
    if h.ndim != 2 or h.shape[0] != h.shape[1] or h.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape "
                         f"{h.shape}")
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


def classify_game(game: Game, sample_points) -> GameClass:
    """Classify a game over sample points.

    Potential when the antisymmetric Hessian part vanishes at every sample,
    hamiltonian when the symmetric part does, general otherwise, each
    within 1e-9 times the largest Hessian entry seen.  Raises ValueError
    for a sample that is non-finite or of the wrong length.
    """
    points = [as_point(game.partition, p) for p in sample_points]
    if not points:
        raise ValueError("need at least one sample point")
    return _game_class([_split(game, w) for w in points])


def _split(game: Game, w: Array) -> Decomposition:
    return helmholtz_split(full_hessian(game, w))


def _game_class(splits) -> GameClass:
    """``classify_game`` from the splits at its sample points."""
    max_a = max_s = max_h = 0.0
    for dec in splits:
        max_a = max(max_a, _inf_norm(dec.antisymmetric))
        max_s = max(max_s, _inf_norm(dec.symmetric))
        max_h = max(max_h, _inf_norm(dec.hessian))
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
    w = as_point(game.partition, w)
    xi = simultaneous_gradient(game, w)
    return float(xi @ _thvp(game, w, xi))


def _psd_tolerance(eigs: Array) -> float:
    return 1e-9 * max(1.0, float(eigs[0] - eigs[-1]))


def _verdict(dec: Decomposition) -> str:
    tol = _psd_tolerance(dec.s_eigenvalues)
    if dec.s_eigenvalues[-1] >= -tol:
        return STABLE
    if dec.s_eigenvalues[0] < -tol:
        return UNSTABLE
    return INDEFINITE


def classify_fixed_point(game: Game, w) -> FixedPointReport:
    """Stability and local-Nash status of a fixed point.

    Raises ValueError for a point that is non-finite or of the wrong
    length, and NotAFixedPointError unless ``|xi(w)| <= 1e-8`` (a NaN
    field included).  Stability
    comes from the eigenvalues of S: all nonnegative (within a spread-scaled
    tolerance) is stable, all negative is unstable, otherwise indefinite.
    Quadratic games have a constant S, so the point itself decides; other
    games are probed at the point plus a few nearby samples, and the verdict
    must agree on all of them.  ``is_local_nash`` checks that each player's
    own diagonal block of S is positive semidefinite.
    """
    w = as_point(game.partition, w)
    xi = simultaneous_gradient(game, w)
    xi_norm = float(np.sqrt(xi @ xi))
    if not xi_norm <= _FIXED_POINT_TOL:
        raise NotAFixedPointError(
            f"|xi(w)| = {xi_norm:.3e} exceeds the fixed-point tolerance "
            f"{_FIXED_POINT_TOL:.3e}"
        )
    return _classify_point(game, w, xi_norm)[2]


def _classify_point(game: Game, w: Array, xi_norm: float):
    """The game class over w and its neighbourhood, the split at w, and the
    report of ``classify_fixed_point`` (None unless ``xi_norm`` is within
    ``_FIXED_POINT_TOL``), with each full Hessian built once.

    The class equals ``classify_game``'s on the points whose S decides the
    stability of w: w alone in a quadratic game, whose S is constant, and
    w with each nearby sample (the same draws at every call) otherwise.
    The probe at each nearby sample is read off the full Hessian there (a
    quadratic game's is the one at w): ``xi' (H' xi)``, with the fields at
    all samples in one batch, what ``stability_probe`` computes with an
    analytic Hessian.
    """
    rng = np.random.default_rng(0)
    nearby = [w + _NEIGHBORHOOD_RADIUS * rng.standard_normal(w.size)
              for _ in range(_NEIGHBORHOOD_SAMPLES)]
    deciding = [w] if isinstance(game, QuadraticGame) else [w] + nearby
    splits = [_split(game, p) for p in deciding]
    dec = splits[0]
    if not xi_norm <= _FIXED_POINT_TOL:
        return _game_class(splits), dec, None

    stability = _verdict(dec)
    # S varies with w: the verdict must hold throughout the neighborhood.
    if any(_verdict(other) != stability for other in splits[1:]):
        stability = INDEFINITE
    tol = _psd_tolerance(dec.s_eigenvalues)
    is_nash = all(np.linalg.eigvalsh(dec.symmetric[blk, blk])[0] >= -tol
                  for blk in map(game.partition.block,
                                 range(game.num_players)))
    at_nearby = splits[1:] or splits * len(nearby)
    probes = [float(xi @ (near.hessian.T @ xi))
              for xi, near in zip(game.batch_field(np.array(nearby)),
                                  at_nearby)]
    return _game_class(splits), dec, FixedPointReport(
        xi_norm=xi_norm, stability=stability, is_local_nash=is_nash,
        probe_value=float(np.mean(probes)))


def _vectors(*named) -> list[Array]:
    """The vectors of the ``(vector, name)`` pairs, each checked by
    ``_as_vector`` against the length of the first, which is not 0."""
    first, what = named[0]
    if np.size(first) == 0:
        raise ValueError(f"{what} is empty")
    return [_as_vector(v, np.size(first), name) for v, name in named]


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
    ``AdjusterSpec`` does, for an empty xi, and for a vector that
    ``as_point`` would reject as a point of xi's length, naming it.
    """
    check_epsilon(epsilon)
    # One contiguous column each: BLAS may sum a strided one in another
    # order.
    columns = [np.array(v)[None, :, None] for v in _vectors(
        (xi, "xi"), (at_xi, "at_xi"), (grad_h, "grad_h"))]
    return float(_aligned_signs(*columns, epsilon)[0, 0])


def infinitesimal_alignment(u, v, w) -> float:
    """Derivative at lambda = 0 of cos^2 of the angle between u + lambda v
    and w, in closed form:

        2 <u,w> (<v,w> |u|^2 - <u,w> <u,v>) / (|u|^4 |w|^2)

    Positive values mean a small positive lambda bends u toward w when they
    already point the same way, or away from w when they do not.  Raises
    ValueError for an empty u, for a vector that ``as_point`` would reject
    as a point of u's length, naming it, and for a zero u or w.
    """
    u, v, w = _vectors((u, "u"), (v, "v"), (w, "w"))
    uu = float(u @ u)
    ww = float(w @ w)
    if uu == 0.0 or ww == 0.0:
        raise ValueError("u and w must be nonzero")
    uw = float(u @ w)
    vw = float(v @ w)
    uv = float(u @ v)
    return 2.0 * uw * (vw * uu - uw * uv) / (uu * uu * ww)
