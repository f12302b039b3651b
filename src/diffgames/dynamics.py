"""Update rules and the optimizer loop.

Every rule produces an adjusted direction from the current field; the loop
is a plain explicit-Euler step on that direction.  Exposing the direction
separately lets callers feed any outer optimizer, while keeping the built-in
loop simple enough that the spectral oracle below is exact for the
fixed-weight rules on quadratic games with zero offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import alignment_sign
from .derivatives import DEFAULT_CONFIG, DifferentiationConfig, hvp, thvp
from .games import Game, QuadraticGame

Array = np.ndarray

SIMGD = "simgd"
SGA = "sga"
SGA_ALIGNED = "sga-aligned"
CONSENSUS = "consensus"
ALIGNED_CONSENSUS = "aligned-consensus"
HAMILTONIAN_DESCENT = "hamiltonian-descent"
OMD = "omd"

KINDS = (SIMGD, SGA, SGA_ALIGNED, CONSENSUS, ALIGNED_CONSENSUS,
         HAMILTONIAN_DESCENT, OMD)
# Rules whose Euler iteration is linear on quadratic games (oracle-eligible).
LINEAR_KINDS = (SIMGD, SGA, CONSENSUS, HAMILTONIAN_DESCENT, OMD)

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class AdjusterSpec:
    """A named update rule with its adjustment weight and alignment bias.

    ``epsilon`` is consulted only by the aligned-sga rule; everything else
    ignores it.
    """

    kind: str = SIMGD
    lam: float = 1.0
    epsilon: float = 0.1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown adjuster {self.kind!r}; one of {KINDS}")
        if not np.isfinite(self.lam):
            raise ValueError("lam must be finite")
        if not self.epsilon >= 0:
            raise ValueError(f"epsilon must be nonnegative, got {self.epsilon}")


@dataclass(frozen=True)
class StopCriteria:
    """When to stop a run.

    Converged: the mean over the trailing ``loss_window`` iterations of the
    per-iteration mean absolute loss drops below ``loss_threshold`` (set the
    threshold to 0 to disable), or ``|xi|`` drops below ``xi_threshold`` when
    that is set.  Diverged: the iterate norm exceeds ``divergence_norm`` or
    goes non-finite.
    """

    max_iters: int = 10000
    loss_window: int = 10
    loss_threshold: float = 0.01
    divergence_norm: float = 1e6
    xi_threshold: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not (1 <= self.loss_window <= self.max_iters):
            raise ValueError("need 1 <= loss_window <= max_iters")
        for name in ("loss_threshold", "divergence_norm", "xi_threshold"):
            value = getattr(self, name)
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")


def check_eta(eta: float) -> None:
    """Reject a learning rate that is not positive and finite (NaN too)."""
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")


@dataclass(frozen=True)
class StepDiagnostics:
    loss: Array          # per-player losses at the pre-step point
    xi_norm: float
    probe: float         # <xi, H' xi>
    sign: float          # sign of the adjustment weight actually applied
    finite: bool         # whether the post-step point is finite


@dataclass
class Trajectory:
    """Iterate history with per-iteration diagnostics.

    ``points`` holds the initial point plus one entry per Euler step taken.
    The diagnostic arrays have one entry per processed iteration (evaluated
    at the pre-step point).  ``outcome_iteration`` is the iteration at which
    the outcome was decided; for MAX_ITERS it equals the iteration budget.
    """

    points: Array                 # (steps+1, d)
    losses: Array                 # (iters, n)
    xi_norms: Array               # (iters,)
    probes: Array                 # (iters,)
    signs: Array                  # (iters,)
    outcome: str                  # CONVERGED | DIVERGED | MAX_ITERS
    outcome_iteration: int

    @property
    def final_point(self) -> Array:
        return self.points[-1]

    def mean_abs_losses(self) -> Array:
        if self.losses.size == 0:
            return np.zeros(0)
        return np.mean(np.abs(self.losses), axis=1)


def _adjusted(spec: AdjusterSpec, game: Game, w: Array, xi: Array, prev_xi,
              config: DifferentiationConfig):
    """Direction at w, given the field xi there, plus diagnostics.

    Returns (direction, probe, sign); probe is <xi, H' xi> and sign is the
    sign of the adjustment weight the rule actually applied (0 for rules
    without a weighted adjustment term).  With an analytic Hessian, H is
    fetched once and both products use it (the same arithmetic as ``thvp``
    and ``hvp``); otherwise both go through the finite-difference products.
    """
    if config.hvp_mode == "analytic" and game.has_analytic_hessian:
        h = game.analytic_hessian(w)
        grad_h = h.T @ xi
    else:
        h = None
        grad_h = thvp(game, w, xi, config)
    probe = float(xi @ grad_h)
    sign = 0.0

    if spec.kind == SIMGD:
        vec = xi
    elif spec.kind in (SGA, SGA_ALIGNED):
        h_xi = hvp(game, w, xi, config) if h is None else h @ xi
        at_xi = 0.5 * (grad_h - h_xi)
        if spec.kind == SGA_ALIGNED:
            sign = alignment_sign(xi, at_xi, grad_h, spec.epsilon)
            lam = abs(spec.lam) * sign
        else:
            lam = spec.lam
            sign = 1.0 if lam >= 0 else -1.0
        vec = xi + lam * at_xi
    elif spec.kind == CONSENSUS:
        sign = 1.0 if spec.lam >= 0 else -1.0
        vec = xi + spec.lam * grad_h
    elif spec.kind == ALIGNED_CONSENSUS:
        sign = 1.0 if probe >= 0 else -1.0
        vec = xi + abs(spec.lam) * sign * grad_h
    elif spec.kind == HAMILTONIAN_DESCENT:
        vec = grad_h
    elif spec.kind == OMD:
        prev = xi if prev_xi is None else np.asarray(prev_xi, float)
        vec = 2.0 * xi - prev
    else:  # unreachable: AdjusterSpec validates kinds
        raise ValueError(f"unknown adjuster {spec.kind!r}")
    return vec, probe, sign


def direction(spec: AdjusterSpec, game: Game, w, prev_xi=None,
              config: DifferentiationConfig = DEFAULT_CONFIG) -> Array:
    """The adjusted update direction at w.

    ``prev_xi`` is the previous field value, used only by the omd rule;
    omitting it makes omd fall back to the plain field on its first step.
    """
    w = np.asarray(w, dtype=float).reshape(-1)
    _, xi = game.losses_and_field(w)
    vec, _, _ = _adjusted(spec, game, w, xi, prev_xi, config)
    return vec


def step(spec: AdjusterSpec, game: Game, w, eta: float, prev_xi=None,
         config: DifferentiationConfig = DEFAULT_CONFIG):
    """One explicit-Euler step ``w - eta * direction`` with diagnostics.

    A non-finite post-step point is reported through ``diagnostics.finite``
    rather than raised; the caller decides how to treat divergence.
    """
    check_eta(eta)
    w = np.asarray(w, dtype=float).reshape(-1)
    loss, xi = game.losses_and_field(w)
    vec, probe, sign = _adjusted(spec, game, w, xi, prev_xi, config)
    w_new = w - eta * vec
    diag = StepDiagnostics(
        loss=loss,
        xi_norm=math.sqrt(float(xi @ xi)),
        probe=probe,
        sign=sign,
        finite=bool(np.isfinite(w_new).all()),
    )
    return w_new, diag


def run(spec: AdjusterSpec, game: Game, w0, eta: float,
        stop: StopCriteria = StopCriteria(),
        config: DifferentiationConfig = DEFAULT_CONFIG) -> Trajectory:
    """Iterate Euler steps until convergence, divergence, or the budget.

    All failure modes land in ``Trajectory.outcome``; nothing is raised for
    numerical blow-ups.  Norms are ``sqrt(v @ v)``, which is what
    ``np.linalg.norm`` computes for a real vector.
    """
    check_eta(eta)
    w = np.asarray(w0, dtype=float).reshape(-1)
    points = [w.copy()]
    losses, xi_norms, probes, signs = [], [], [], []
    window = []
    prev_xi = None
    outcome, decided_at = MAX_ITERS, stop.max_iters

    for t in range(stop.max_iters):
        # A non-finite norm is a non-finite w, unless w @ w overflowed.
        w_norm = math.sqrt(float(w @ w))
        if w_norm > stop.divergence_norm or (
                not math.isfinite(w_norm) and not np.isfinite(w).all()):
            outcome, decided_at = DIVERGED, t
            break
        loss, xi = game.losses_and_field(w)
        vec, probe, sign = _adjusted(spec, game, w, xi, prev_xi, config)
        xi_norm = math.sqrt(float(xi @ xi))
        if not (np.isfinite(loss).all() and math.isfinite(xi_norm)):
            outcome, decided_at = DIVERGED, t
            break
        losses.append(loss)
        xi_norms.append(xi_norm)
        probes.append(probe)
        signs.append(sign)
        window.append(float(np.mean(np.abs(loss))))
        if len(window) > stop.loss_window:
            window.pop(0)

        if stop.xi_threshold is not None and xi_norm < stop.xi_threshold:
            outcome, decided_at = CONVERGED, t
            break
        if (stop.loss_threshold > 0 and len(window) == stop.loss_window
                and float(np.mean(window)) < stop.loss_threshold):
            outcome, decided_at = CONVERGED, t
            break

        w = w - eta * vec
        points.append(w)
        prev_xi = xi

    n = game.num_players
    return Trajectory(
        points=np.asarray(points),
        losses=(np.asarray(losses) if losses else np.zeros((0, n))),
        xi_norms=np.asarray(xi_norms),
        probes=np.asarray(probes),
        signs=np.asarray(signs),
        outcome=outcome,
        outcome_iteration=decided_at,
    )


@dataclass(frozen=True)
class SpectralPrediction:
    spectral_radius: float
    predicts_convergence: bool


def iteration_matrix(spec: AdjusterSpec, game: QuadraticGame,
                     eta: float) -> Array:
    """Exact linear iteration matrix of a fixed-weight rule.

    Only defined for quadratic games with zero gradient offsets, where every
    non-aligned rule reduces to ``w_next = M w`` (omd needs its companion
    form on the doubled state (w_t, w_{t-1})).
    """
    if not isinstance(game, QuadraticGame):
        raise ValueError("the spectral oracle needs a quadratic game")
    if np.any(game.gradient_offset != 0.0):
        raise ValueError("the spectral oracle needs zero gradient offsets")
    if spec.kind not in LINEAR_KINDS:
        raise ValueError(
            f"adjuster {spec.kind!r} is not a fixed linear rule; "
            f"oracle-eligible kinds: {LINEAR_KINDS}"
        )
    h = game.hessian_matrix
    d = h.shape[0]
    eye = np.eye(d)
    if spec.kind == SIMGD:
        return eye - eta * h
    if spec.kind == SGA:
        anti = 0.5 * (h - h.T)
        return eye - eta * (eye + spec.lam * anti.T) @ h
    if spec.kind == CONSENSUS:
        return eye - eta * (eye + spec.lam * h.T) @ h
    if spec.kind == HAMILTONIAN_DESCENT:
        return eye - eta * h.T @ h
    # OMD companion form: w_next = (I - 2 eta H) w_t + eta H w_{t-1}.
    return np.block([[eye - 2.0 * eta * h, eta * h],
                     [eye, np.zeros((d, d))]])


def spectral_oracle(spec: AdjusterSpec, game: QuadraticGame,
                    eta: float) -> SpectralPrediction:
    """Exact convergence prediction from the iteration matrix spectrum."""
    m = iteration_matrix(spec, game, eta)
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    return SpectralPrediction(spectral_radius=rho,
                              predicts_convergence=rho < 1.0)
