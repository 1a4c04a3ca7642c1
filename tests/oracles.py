"""Independent oracles used by the test suite.

These deliberately avoid the package's coordinate-descent machinery: the
scalar parameter (eps_inf or gamma) is located by dense grid search with a
closed-form normal-equations solve of the log-linear block at each grid
point.  Slow but unambiguous.  A grid point that cannot be scored (a log of
0, singular normal equations, or a beta out of float range) is passed over,
and an oracle returns None when no grid point can be scored.
"""

import numpy as np

from scalefit.models import M2Params, M3Params, M4Params


def _normal_eq(A, y):
    # hand-rolled normal equations, independent of numpy.linalg.lstsq
    return np.linalg.solve(A.T @ A, A.T @ y)


def _full_rank(A):
    """Whether A's normal equations are regular, also where rounding lets
    np.linalg.solve go through on a rank-deficient A."""
    return np.linalg.matrix_rank(A) == A.shape[1]


def _best(points, score):
    """The params of the lowest loss of score(point) = (loss, params) over
    points, passing over those it cannot score."""
    best = (np.inf, None)
    for point in points:
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                loss, params = score(point)
        except (FloatingPointError, ValueError, np.linalg.LinAlgError):
            continue
        if loss < best[0]:
            best = (loss, params)
    return best[1]


def _eps_inf_grid(curve, n_grid):
    return np.linspace(0.0, float(curve.eps_array.min()) * (1 - 1e-9), n_grid,
                       endpoint=False)


def grid_fit_m2(curve, n_grid=2000):
    """Best M2 params over a dense eps_inf grid in [0, min eps)."""
    eps = curve.eps_array
    logx = np.log(curve.x_array)
    A = np.column_stack([np.ones_like(logx), logx])
    if not _full_rank(A):
        return None

    def score(e_inf):
        y = np.log(eps - e_inf)
        b0, c = _normal_eq(A, y)
        loss = float(np.mean((y - A @ (b0, c)) ** 2))
        return loss, M2Params(eps_inf=e_inf, beta=float(np.exp(b0)), c=float(c))

    return _best(_eps_inf_grid(curve, n_grid), score)


def grid_fit_m3(curve, gammas=None):
    """Best M3 params over a gamma grid (0 plus a wide log grid)."""
    y = np.log(curve.eps_array)
    inv_x = 1.0 / curve.x_array
    if gammas is None:
        gammas = np.concatenate([[0.0], np.geomspace(1e-8, 10.0, 4000)])

    def score(gamma):
        A = np.column_stack([np.ones_like(inv_x), np.log(inv_x + gamma)])
        if not _full_rank(A):
            raise np.linalg.LinAlgError("rank-deficient design")
        b0, c = _normal_eq(A, y)
        loss = float(np.mean((y - A @ (b0, c)) ** 2))
        return loss, M3Params(beta=float(np.exp(b0)), c=float(c), gamma=float(gamma))

    return _best(gammas, score)


def grid_fit_m4(curve, n_grid=2000, fix_alpha_zero=False):
    """Best M4 params over a dense eps_inf grid, alpha projected to >= 0."""
    eps = curve.eps_array
    eps0 = curve.eps0
    logx = np.log(curve.x_array)
    ones = np.ones_like(logx)
    log_gap = np.log(eps0 - eps)
    if not _full_rank(np.column_stack([ones, logx] if fix_alpha_zero else [log_gap, ones, logx])):
        return None

    def score(e_inf):
        y = np.log(eps - e_inf)
        if fix_alpha_zero:
            alpha = 0.0
            A = np.column_stack([ones, logx])
            b0, c = _normal_eq(A, y)
            loss = float(np.mean((y - A @ (b0, c)) ** 2))
        else:
            A = np.column_stack([log_gap, ones, logx])
            alpha, b0, c = _normal_eq(A, y)
            if alpha < 0:
                alpha = 0.0
                A2 = np.column_stack([ones, logx])
                b0, c = _normal_eq(A2, y)
                loss = float(np.mean((y - A2 @ (b0, c)) ** 2))
            else:
                loss = float(np.mean((y - A @ (alpha, b0, c)) ** 2))
        return loss, M4Params(eps0=eps0, eps_inf=float(e_inf), alpha=float(alpha),
                              beta=float(np.exp(b0)), c=float(c))

    return _best(_eps_inf_grid(curve, n_grid), score)


def relerr(a, b, floor=1e-12):
    """|a - b| relative to |b| with a small floor for near-zero truths."""
    return abs(a - b) / max(abs(b), floor)
