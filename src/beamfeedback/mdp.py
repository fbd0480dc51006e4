"""Average-reward control of the feedback decision on the binned state space.

Each slot the controller either requests feedback (beam realigned this slot,
price charged) or keeps the stale beam.  Stage reward is spectral efficiency
minus the price; policy iteration maximizes its long-run average.  An
exhaustive search over threshold policies and discounted and relative value
iteration cross-check it as test oracles (tests/oracles.py).

The chain a policy induces factorizes: T[(m,n),(k,l)] = Ptilde[m,k] Pz[m,n,l],
where Pz[m,n,:] is the model's one feedback row (exact or quantized, as the
model was estimated) where the policy feeds back and P0[n,:] elsewhere.
Every solver goes through one backup that applies it to a value table in
O(M^2 N + M N^2), and policy evaluation and stationary laws solve their
linear systems with GMRES on that operator, so no (MN)^2 matrix is ever
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state_grid import GridSpec, TransitionModel

__all__ = [
    "RewardSpec",
    "Policy",
    "SolveResult",
    "NumericalError",
    "policy_iteration_average",
    "stationary_distribution",
    "threshold_lower_bound",
]


class NumericalError(RuntimeError):
    """A solve that cannot return a threshold policy (CLI exit 3): a chain
    system that is singular or stalls in GMRES, a stationary law that is
    negative or unstable, policy iteration that does not settle, or a settled
    decision table that feeds back above a gap in some row.  On a tie between
    tables of equal gain that gap may lie on states the policy never occupies."""


@dataclass(frozen=True)
class RewardSpec:
    """Link SNR and the per-feedback price."""

    P: float
    alpha: float

    def __post_init__(self):
        if not (self.P > 0.0 and math.isfinite(self.P)):
            raise ValueError("SNR P must be positive and finite")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError("price alpha must be nonnegative and finite")


@dataclass(frozen=True, eq=False)
class Policy:
    """Feedback threshold y[m] per power bin: feed back when the alignment
    z < y[m].  y[m] = 1 feeds back at every alignment, y[m] = 0 never."""

    y: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float)  # a copy: the caller's array stays writable
        if y.ndim != 1:
            raise ValueError("thresholds must be 1-D over the power bins")
        if not np.all((y >= 0.0) & (y <= 1.0)):  # NaN fails both
            raise ValueError("thresholds must lie in [0, 1]")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Optimal policy with its gain J and differential values A.

    ``residual`` is the relative residual of the evaluation that produced J
    and A; it is not serialized.
    """

    policy: Policy
    J: float
    A: np.ndarray
    iterations: int
    residual: float


def _stage_tables(spec: GridSpec, rewards: RewardSpec, eps):
    """Reward tables on the grid: G0 over (m, n), G1 over m only."""
    G0 = np.log2(1.0 + rewards.P * spec.g_points[:, None] * spec.z_points[None, :])
    if eps is None:
        G1 = np.log2(1.0 + rewards.P * spec.g_points) - rewards.alpha
    elif eps.P != rewards.P:
        raise ValueError(f"quantized rates are tabled at SNR {eps.P}, not {rewards.P}")
    elif np.array_equal(eps.g_points, spec.g_points):
        G1 = eps.per_g_rate - rewards.alpha
    else:
        raise ValueError("quantized rates are not tabled on the grid's power points")
    return G0, G1


def _backup(h: np.ndarray, model: TransitionModel):
    """Expected next-slot value of the table h under each decision.

    Returns W0 over (power, alignment) bins for keeping the beam and W1 over
    power bins for feeding back, after which the alignment law is the
    model's feedback row whatever the current bin.
    """
    W0 = model.Ptilde @ h @ model.P0.T
    W1 = model.Ptilde @ (h @ model.feedback_row)
    return W0, W1


# Converged when |b - Bx| <= tol (|b| + |x|).  The |x| term is the rounding
# floor of applying B: slow fading gives |x| of hundreds of |b|, where a bound
# on |b| alone is out of reach (doppler 0.001 stalls near 3e-14 |b|).
_GMRES_TOL = 1e-14
_GMRES_RESTART = 80
_GMRES_MAX_ITER = 4000

_POLICY_ITERATIONS = 50  # improvement steps before policy iteration fails


def _gmres(apply, b: np.ndarray):
    """Restarted GMRES for apply(x) = b on flat float vectors.

    Returns (x, relative residual), the residual recomputed from apply.  A
    system that does not reach the tolerance within the iteration cap raises
    NumericalError: the systems solved here are singular exactly when the
    chain has more than one closed class.
    """
    bnorm = float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if bnorm == 0.0:
        return x, 0.0
    r = b.copy()
    done = 0
    while True:
        beta = float(np.linalg.norm(r))
        goal = _GMRES_TOL * (bnorm + float(np.linalg.norm(x)))
        if beta <= goal:
            return x, beta / bnorm
        if done >= _GMRES_MAX_ITER:
            raise NumericalError(
                f"chain system did not converge in {done} iterations "
                f"(relative residual {beta / bnorm:.3e})")
        k = min(_GMRES_RESTART, _GMRES_MAX_ITER - done)
        V = np.empty((k + 1, b.size))
        V[0] = r / beta
        R = np.zeros((k, k))
        Q = np.eye(k + 1)   # Givens rotations so far; Q H = R
        j = 0
        while j < k:
            w = apply(V[j])
            h = V[: j + 1] @ w
            w -= h @ V[: j + 1]
            dh = V[: j + 1] @ w    # second Gram-Schmidt pass keeps V orthonormal
            w -= dh @ V[: j + 1]
            hn = float(np.linalg.norm(w))
            col = Q[: j + 2, : j + 1] @ (h + dh)
            col[j + 1] = hn
            den = math.hypot(col[j], hn)
            if den == 0.0:
                break
            rot = np.array([[col[j], hn], [-hn, col[j]]]) / den
            Q[j : j + 2, : j + 2] = rot @ Q[j : j + 2, : j + 2]
            col[j] = den
            R[: j + 1, j] = col[: j + 1]
            j += 1
            done += 1
            if beta * abs(Q[j, 0]) <= goal or hn == 0.0:
                break
            V[j] = w / hn
        if j == 0:
            raise NumericalError("chain system is singular: Krylov breakdown")
        y = np.linalg.solve(R[:j, :j], beta * Q[:j, 0])
        x += y @ V[:j]
        r = b - apply(x)


def _agree(a: np.ndarray, b: np.ndarray) -> bool:
    """Two normalizations of one regular system give one solution."""
    return float(np.max(np.abs(a - b))) <= 1e-8 * max(1.0, float(np.max(np.abs(a))))


def _evaluate_policy(decide: np.ndarray, model: TransitionModel, G0: np.ndarray,
                     G1: np.ndarray):
    """Solve gain J and differential values A for a fixed policy.

    GMRES solves (I - T + 1 u') x = G_pi through the factorized operator;
    then J = u'x and x - J solves J + A = G_pi + T A.  With u the last
    state's indicator, A = x - x[last] pins the last differential value to
    exactly zero.  A singular system (several closed classes) has many
    solutions, and Krylov iterates drift to different ones under different
    u; the uniform normalization is solved as well and the two must agree.

    Returns (J, A, relative residual of the pinned solve).
    """
    M, N = decide.shape
    Gpi = np.where(decide, G1[:, None], G0).ravel()

    def chain(x):   # (T x)[m, n], the expected next-slot value of x
        W0, W1 = _backup(x.reshape(M, N), model)
        return np.where(decide, W1[:, None], W0).ravel()

    def pinned(x):
        return x - chain(x) + x[-1]

    def uniform(x):
        return x - chain(x) + x.mean()

    x, residual = _gmres(pinned, Gpi)
    y, _ = _gmres(uniform, Gpi)
    # both give A + J: the pinned x directly, the uniform y as y - y[last] + mean(y)
    if not _agree(x, y - y[-1] + y.mean()):
        raise NumericalError("policy evaluation system is singular")
    J = float(x[-1])
    return J, (x - J).reshape(M, N), residual


def policy_iteration_average(model: TransitionModel, rewards: RewardSpec,
                             spec: GridSpec, eps=None) -> SolveResult:
    """Howard policy iteration on the average-reward criterion.

    Matrix-free evaluation (GMRES on the factorized chain, to a residual of
    1e-14 of |G_pi| + |solution|) alternates with a greedy improvement that
    requests feedback only on strict improvement.  Terminates when the
    decision table repeats; the returned A solves the evaluation equations of
    that table, and ``residual`` is that final solve's relative residual.
    Each row of the settled table feeds back on a leading run of alignment
    bins, and the policy's threshold is the upper edge of that run; a row
    that feeds back above a gap, a chain with more than one closed class, or
    a table that does not settle raises NumericalError.
    """
    G0, G1 = _stage_tables(spec, rewards, eps)
    decide = G1[:, None] > G0
    for it in range(1, _POLICY_ITERATIONS + 1):
        J, A, residual = _evaluate_policy(decide, model, G0, G1)
        W0, W1 = _backup(A, model)
        improved = G1[:, None] + W1[:, None] > G0 + W0
        if np.array_equal(improved, decide):
            lead = np.cumprod(decide, axis=1).sum(axis=1)  # leading feedback run
            if not np.array_equal(decide, np.arange(spec.N) < lead[:, None]):
                raise NumericalError("policy iteration settled on a decision "
                                     "table that is not a threshold rule")
            return SolveResult(Policy(spec.z_edges[lead]), J, A, it, residual)
        decide = improved
    raise NumericalError("policy iteration did not settle")


def stationary_distribution(decide: np.ndarray, model: TransitionModel) -> np.ndarray:
    """Long-run state occupancy, an (M, N) distribution, under a fixed
    decision table over (power, alignment) bins, True where it feeds back.

    GMRES solves pi (I - T + 1 u') = u' through the factorized chain, once
    with u the last state's indicator and once uniform; a regular chain gives
    both the same answer.  The result is then verified against 50 slots of
    occupancy flow.
    """
    M, N = decide.shape
    if model.P0.shape[0] != N or model.Ptilde.shape[0] != M:
        raise ValueError("policy shape does not match the model")

    def flow(pi):   # pi T: one slot of occupancy flow
        pi = pi.reshape(M, N)
        kept = np.where(decide, 0.0, pi)
        fed = np.where(decide, pi, 0.0).sum(axis=1)
        return (model.Ptilde.T @ (kept @ model.P0 + np.outer(fed, model.feedback_row))).ravel()

    def pinned(pi):
        out = pi - flow(pi)
        out[-1] += pi.sum()
        return out

    def uniform(pi):
        return pi - flow(pi) + pi.sum() / pi.size

    size = M * N
    last = np.zeros(size)
    last[-1] = 1.0
    pi, _ = _gmres(pinned, last)
    other, _ = _gmres(uniform, np.full(size, 1.0 / size))
    if not _agree(pi, other):
        raise NumericalError("stationary system is singular")
    if pi.min() < -1e-10:
        raise NumericalError("stationary solve produced negative occupancy")
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    probe = pi
    for _ in range(50):
        probe = flow(probe)
    if np.max(np.abs(probe - pi)) > 1e-8:
        raise NumericalError("stationary solution is not stable under iteration")
    return pi.reshape(M, N)


def threshold_lower_bound(gbar: float, P: float, alpha: float) -> float:
    """Alignment level below which feedback pays for itself within the slot.

    Clipped to zero; zero power never justifies feedback.
    """
    if gbar < 0 or P <= 0 or alpha < 0:
        raise ValueError("gbar must be nonnegative, P positive, alpha nonnegative")
    if gbar == 0.0:
        return 0.0
    val = (2.0 ** (-alpha) * (1.0 + P * gbar) - 1.0) / (P * gbar)
    return max(0.0, val)
