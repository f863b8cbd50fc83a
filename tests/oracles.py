"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the package's own code paths: OLS goes
through raw normal equations, gradients through central differences, the
Gaussian normalizer through adaptive quadrature, and the iterative row optimum
through scipy's L-BFGS-B on the objective's public definition.
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

import tminfer as tm


def ols_conditional(dataset, site, regressor_sites):
    """No-intercept least squares of one site on a chosen regressor set.

    Returns (weights, residual_variance, a_star, k_star): the conditional
    Gaussian MLE in natural parameters is a = 1 / (2 * resvar) and
    k = 2 * a * weights.
    """
    s = np.hstack([dataset.inputs, dataset.outputs])
    y = s[:, site]
    x = s[:, list(regressor_sites)]
    w = np.linalg.solve(x.T @ x, x.T @ y)
    resvar = float(np.mean((y - x @ w) ** 2))
    a = 1.0 / (2.0 * resvar)
    return w, resvar, a, 2.0 * a * w


def lbfgs_row(dataset, site, start):
    """Minimize ``row_neg_logpl`` over (a, k) for a full-support row by
    L-BFGS-B from ``start`` (a RowParams), returning the optimum RowParams.

    The curvature is bounded away from 0, where the objective diverges.
    """
    def fun(theta):
        params = tm.RowParams(site=site, a=theta[0], k=theta[1:])
        d_a, d_k = tm.row_grad(params, dataset)
        return tm.row_neg_logpl(params, dataset), np.concatenate([[d_a], d_k])

    res = minimize(fun, np.concatenate([[start.a], start.k]), jac=True,
                   method="L-BFGS-B",
                   bounds=[(1e-8, None)] + [(None, None)] * start.k.shape[0],
                   options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-11})
    return tm.RowParams(site=site, a=res.x[0], k=res.x[1:])


def central_difference(fn, x, h_rel=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    g = np.empty_like(x)
    for j in range(x.size):
        h = h_rel * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def quadrature_log_partition(a, b):
    """ln of integral exp(-a*x**2 + b*x) dx over the real line, by quadrature.

    The integrand is rescaled by its peak value to keep the numbers tame;
    the log of the scale is added back at the end.
    """
    mu = b / (2.0 * a)
    peak_log = b * mu - a * mu * mu

    def f(x):
        return np.exp(-a * x * x + b * x - peak_log)

    left, _ = quad(f, -np.inf, mu, limit=200)
    right, _ = quad(f, mu, np.inf, limit=200)
    return float(np.log(left + right) + peak_log)


def quadrature_density_mass(a, b, log_z):
    """Integral of the conditional density exp(-a x^2 + b x - log_z) over R."""
    mu = b / (2.0 * a)

    def f(x):
        return np.exp(-a * x * x + b * x - log_z)

    left, _ = quad(f, -np.inf, mu, limit=200)
    right, _ = quad(f, mu, np.inf, limit=200)
    return float(left + right)


def assemble_coupling_blocks(t):
    """Block-by-block ground-truth coupling assembly, loop form."""
    nh = t.shape[0]
    n = 2 * nh
    j = np.zeros((n, n))
    u = t.T @ t
    for a in range(nh):
        for b in range(nh):
            j[a, b] = -u[a, b]
            j[a, nh + b] = 2.0 * t[b, a]
            j[nh + a, b] = 2.0 * t[a, b]
            j[nh + a, nh + b] = -1.0 if a == b else 0.0
    return j
