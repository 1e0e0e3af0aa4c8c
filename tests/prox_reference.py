"""Power-penalty proximal operator, the tests' reference for the p < 1 solver.

The package solves p < 1 through ``branch_roots`` and never needs the prox
itself; the tests use it as an independent check: the weak dual on a dense
multiplier grid, and the prox's global optimality against a grid search.
"""

import numpy as np

from lpseq.shrinkage import FLUSH_TOL, branch_roots, psi_many


def power_objective(p: float, lam, t, x) -> np.ndarray:
    """Prox objective ``(x-t)**2/2 + (lam/p) * x**p`` at magnitude ``x >= 0``."""
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    with np.errstate(invalid="ignore"):
        pen = np.where(x > 0, (lam / p) * x ** p, 0.0)
    return 0.5 * (x - t) ** 2 + pen


def prox_power_many(p: float, lam, t) -> np.ndarray:
    """Elementwise prox of ``x -> (lam/p)*x**p`` at magnitudes ``t >= 0``.

    Each element is the global minimizer of ``(x - t)**2/2 + (lam/p)*x**p``
    over ``x >= 0``: the ``psi_many`` root for ``p >= 1``; for ``p in
    (0, 1)`` the better of zero and the upper root, ties going to zero.
    ``lam`` broadcasts against ``t``, so a whole multiplier grid can be
    evaluated in one call.  Magnitudes below ``FLUSH_TOL`` come out as 0.
    """
    if p >= 1.0:
        return psi_many(p, lam, t)
    # the objective's slope g(x) - t is positive on (0, lower root), and
    # everywhere past the branch point, so there neither the lower root nor
    # the meeting point beats zero; only the upper root competes with it
    upper = branch_roots(p, lam, t, True)
    take = power_objective(p, lam, t, upper) < power_objective(p, lam, t, 0.0)
    x = np.where(take, upper, 0.0)  # strict: ties stay at zero
    x[x < FLUSH_TOL] = 0.0
    return x
