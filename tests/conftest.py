"""Shared helpers: small synthetic models whose structure is known by construction."""

import dataclasses

import numpy as np

from beamfeedback.state_grid import GridSpec, TransitionModel


def tilted_rows(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Stochastic matrix of exponentially tilted copies of one base row.

    Increasing tilt pushes mass rightward, so later rows dominate earlier
    rows in the tail-sum order; this holds exactly, not just statistically.
    """
    base = rng.random(cols) + 0.05
    lam = np.sort(rng.random(rows) * 2.0)
    out = base[None, :] * np.exp(lam[:, None] * np.arange(cols)[None, :])
    return out / out.sum(axis=1, keepdims=True)


def synthetic_setup(rng: np.random.Generator, M: int = 3, N: int = 4, L: int = 3,
                    quantized: bool = False):
    """Random small (GridSpec, TransitionModel) pair with monotone kernels.

    The no-feedback rows and the exact-feedback row come from one tilted
    family, drawn with the feedback row last, so the feedback row dominates
    every no-feedback row.  With ``quantized`` the model is
    ``lossy_model`` of that exact-row model.
    """
    g_pts = np.sort(rng.gamma(float(L), 1.0, size=M))
    inner = 0.5 * (g_pts[:-1] + g_pts[1:])
    g_edges = np.concatenate(([0.0], inner, [np.inf]))
    z_edges = np.arange(N + 1) / N
    z_pts = (z_edges[:-1] + z_edges[1:]) / 2
    spec = GridSpec(M=M, N=N, g_edges=g_edges, g_points=g_pts,
                    z_edges=z_edges, z_points=z_pts)
    Ptilde = tilted_rows(rng, M, M)
    family = tilted_rows(rng, N + 1, N)
    P0, p1 = family[:N], family[N]
    model = TransitionModel(Ptilde=Ptilde, P0=P0, feedback_row=p1, sample_count=1)
    return spec, lossy_model(model) if quantized else model


def lossy_model(model: TransitionModel) -> TransitionModel:
    """The quantized counterpart of a ``synthetic_setup`` exact-row model.

    Its one feedback row mixes the exact row with the top no-feedback row,
    which places it between them in the tail-sum order.
    """
    row = 0.5 * model.feedback_row + 0.5 * model.P0[-1]
    return dataclasses.replace(model, feedback_row=row, quantized=True)


def gapped_feedback_model() -> TransitionModel:
    """One power bin over three alignment bins whose optimal table feeds
    back in the middle bin alone.

    Keeping the beam sends the lowest and the top bin to the top bin and
    the middle one to the lowest, and feedback sends every bin to the top:
    feeding back pays in the middle bin only.  On ``make_grid(3, 1, 3)`` at
    SNR 100 and prices 2.6 to 3 the greedy table settles on [[0, 1, 0]].
    """
    top, low = [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]
    return TransitionModel(Ptilde=[[1.0]], P0=[top, low, top], feedback_row=top,
                           sample_count=1)
