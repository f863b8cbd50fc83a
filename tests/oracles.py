"""Independent reference implementations used to pin expected values.

Everything here deliberately avoids the package's own code paths: OLS goes
through raw normal equations, gradients through central differences, the
Gaussian normalizer through adaptive quadrature, the iterative row optimum
through scipy's L-BFGS-B on the objective's public definition, the moment row
solve through ``lstsq`` alone (or the one solver a test names), the
decimation loop through its own ranking,
per-row mask comparisons and BIC minimum, extraction through per-row loops
and the sample generator through whole-array draws.  The ``parameterize_*``
functions write a known channel's exact natural parameters as an estimate,
the reference that extraction must invert.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import minimize

import tminfer as tm
from tminfer.pseudolikelihood import other_sites
from tminfer.selection import DecimationPath, DecimationRecord


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


def lstsq_row(site, moments, mask, a_cap):
    """Reference row solve: ``lstsq`` (minimum norm) on ``C[A,A] beta = C[A,y]``
    for every block, then ``minimize_row``'s closed form; a row with no fewer
    active regressors than samples is not converged.  Returns a ``RowFit``."""
    return solved_row(site, moments, mask, a_cap,
                      lambda c_aa, c_ay: np.linalg.lstsq(c_aa, c_ay, rcond=None)[0])


def solved_row(site, moments, mask, a_cap, solve):
    """``lstsq_row`` with ``beta = solve(C[A,A], C[A,y])``."""
    n = moments.dims.n
    c = moments.c
    idx = np.delete(np.arange(n), site)[mask.active]
    c_aa, c_ay, c_yy = c[np.ix_(idx, idx)], c[idx, site], c[site, site]
    beta = solve(c_aa, c_ay)
    fitted = float(beta @ (c_aa @ beta))
    rss = max(c_yy - 2.0 * float(beta @ c_ay) + fitted, 0.0)
    a = a_cap if rss <= 0.5 / a_cap else 0.5 / rss
    k = np.zeros(n - 1)
    k[mask.active] = 2.0 * a * beta
    log_z = math.log(2.0) + 0.5 * (math.log(math.pi) - math.log(4.0 * a))
    return tm.RowFit(params=tm.RowParams(site=site, a=a, k=k),
                     converged=len(idx) < moments.m_samples, iterations=1,
                     objective=a * rss + log_z)


def ranked_masks(est, batch):
    """tminfer 0.5.0's ``decimate_step``: clear the ``batch`` smallest |k| over
    the active couplings of the per-row ``masks``/``rows``, ties broken by row
    then position.  Returns the new ``(rows, n-1)`` support."""
    active = np.vstack([mk.active for mk in est.masks])
    flat_idx = np.flatnonzero(active.ravel())
    magnitudes = np.abs(np.vstack([r.k for r in est.rows]).ravel()[flat_idx])
    order = np.argsort(magnitudes, kind="stable")
    new_active = active.copy()
    new_active.ravel()[flat_idx[order[:batch]]] = False
    return new_active


def fresh_fit_decimation(moments, scope, batch_fraction):
    """Reference decimation loop: every step ranks with ``ranked_masks`` and
    fits the new support afresh with ``fit_all_rows``, so a refit of the rows
    that changed must give the same bits.  Every record keeps its estimate.
    Returns the ``DecimationPath``."""
    est = tm.fit_all_rows(moments, scope=scope)
    m = moments.m_samples

    def record(e):
        k_free = e.n_active_couplings + len(e.rows)
        return DecimationRecord(n_couplings=e.n_active_couplings, k_free=k_free,
                                total_pl=e.total_pl,
                                bic=tm.bic_score(k_free, m, e.total_pl),
                                estimate=e)

    records = [record(est)]
    while est.n_active_couplings > 0:
        remaining = est.n_active_couplings
        batch = min(remaining, max(1, int(batch_fraction * remaining)))
        est = tm.fit_all_rows(moments, ranked_masks(est, batch), scope)
        records.append(record(est))
    return DecimationPath(records=tuple(records), selected=select_best(records))


def lstsq_decimation(moments, scope, batch_fraction):
    """Reference decimation loop that solves every row with ``lstsq_row``:
    rank |k| over the active couplings (stable, ties by row then position),
    clear the batch and refit the rows that lost a coupling.  Returns the
    ``k_free`` and ``total_pl`` sequences, the index of the least
    ``(bic, k_free)`` and that record's ``(rows, n-1)`` support."""
    active = tm.initial_masks(moments.dims, scope)
    first = moments.dims.n - active.shape[0]
    m = moments.m_samples

    def fit(r):
        return lstsq_row(first + r, moments, tm.RowMask(site=first + r, active=active[r]),
                         tm.optimize.A_CAP)

    fits = [fit(r) for r in range(len(active))]
    k_free, total, best, best_key, best_active = [], [], 0, None, None
    while True:
        k_free.append(int(active.sum()) + len(fits))
        total.append(-m * sum(f.objective for f in fits))
        key = (tm.bic_score(k_free[-1], m, total[-1]), k_free[-1])
        if best_key is None or key < best_key:
            best, best_key, best_active = len(k_free) - 1, key, active.copy()
        remaining = int(active.sum())
        if remaining == 0:
            return k_free, total, best, best_active
        batch = min(remaining, max(1, int(batch_fraction * remaining)))
        flat = np.flatnonzero(active)
        k = np.vstack([f.params.k for f in fits])
        drop = flat[np.argsort(np.abs(k.ravel()[flat]), kind="stable")[:batch]]
        active.ravel()[drop] = False
        for r in sorted(set((drop // active.shape[1]).tolist())):
            fits[r] = fit(r)


def select_best(records):
    """Index of the minimum-BIC record, ties resolved toward fewer parameters:
    the least ``(bic, k_free)`` pair in lexicographic order."""
    if not records:
        raise ValueError("no records to select from")
    return min(range(len(records)), key=lambda i: (records[i].bic, records[i].k_free))


def whole_array_samples(channel, m_samples, noise, seed):
    """tminfer 0.6.0's ``generate_dataset`` arithmetic: every input drawn in
    one array, then every noise deviate, then
    ``outputs = inputs @ T.T + sigma * eps``.  Returns (inputs, outputs)."""
    nh = channel.dims.n_half
    rng = np.random.default_rng(seed)
    inputs = rng.random((m_samples, nh))
    eps = rng.standard_normal((m_samples, nh))
    sigma = noise.sigma_vector(nh)
    return inputs, inputs @ channel.entries.T + sigma[None, :] * eps


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


def position_of(site, other):
    """Position of coupling (site, other) inside the length n-1 k vector."""
    if other == site:
        raise ValueError("a site carries no coupling to itself")
    return other if other < site else other - 1


def parameterize_tm(channel, sigma):
    """Exact natural parameters of a known channel at a known noise level.

    Inverse of ``extract_tm`` on its output rows: a = 1 / (2 * sigma**2),
    k over inputs = 2 * a * T row.  Useful as an oracle starting point and in
    round-trip tests.
    """
    dims = channel.dims
    nh = dims.n_half
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (nh,))
    if np.any(sig <= 0):
        raise ValueError("noise must be strictly positive to parameterize")
    a = 1.0 / (2.0 * sig**2)
    k = np.zeros((nh, dims.n - 1))
    k[:, :nh] = 2.0 * a[:, None] * channel.entries
    active = np.zeros(k.shape, dtype=bool)
    active[:, :nh] = True
    return tm.CouplingEstimate(
        dims=dims,
        scope="output",
        direction="forward" if channel.role == "direct" else "reversed",
        a=a,
        k=k,
        active=active,
        row_objectives=(math.nan,) * nh,
        m_samples=None,
        dataset_fingerprint="parameterized",
    )


def parameterize_channel(channel, sigma):
    """All-sites natural parameters a fit would recover for a known channel.

    Output row g: a = beta, couplings 2 * beta * T[g, :] to inputs, none to
    other outputs.  Input row a: a = beta * U[a, a] with U = T^T T, couplings
    -2 * beta * U[a, a'] to other inputs and 2 * beta * T[:, a] to outputs.
    Every input channel must reach at least one output (no zero column in T),
    otherwise its conditional has no curvature.  Injecting this estimate
    gives extraction paths an exact reference: extract_tm returns (T, sigma)
    and extract_gramian returns U with balance 0.
    """
    dims = channel.dims
    nh = dims.n_half
    sig = np.broadcast_to(np.asarray(sigma, dtype=np.float64), (nh,))
    if np.any(sig <= 0):
        raise ValueError("noise must be strictly positive to parameterize")
    t = channel.entries
    b_out = 1.0 / (2.0 * sig**2)
    # Input-row quantities weight each output channel by its own beta; for
    # homogeneous noise this reduces to beta * U with U = T^T T.
    uw = t.T @ (b_out[:, None] * t)
    if np.any(np.diag(uw) <= 0):
        raise ValueError("channel has a dead input (zero column); curvature undefined")
    a = np.empty(dims.n)
    k = np.zeros((dims.n, dims.n - 1))
    for al in range(nh):
        others = other_sites(al, dims.n)
        in_sel = others < nh
        k[al, in_sel] = -2.0 * uw[al, others[in_sel]]
        k[al, ~in_sel] = 2.0 * b_out * t[:, al]
        a[al] = uw[al, al]
    a[nh:] = b_out
    k[nh:, :nh] = 2.0 * b_out[:, None] * t
    return tm.CouplingEstimate(
        dims=dims,
        scope="all",
        direction="forward" if channel.role == "direct" else "reversed",
        a=a,
        k=k,
        active=k != 0.0,
        row_objectives=(math.nan,) * dims.n,
        m_samples=None,
        dataset_fingerprint="parameterized",
    )


def per_row_extract_tm(estimate):
    """``extract_tm`` in loop form: T[g] = k[:n_half] / (2 a) and
    sigma = (2 a) ** -0.5, one output row at a time through ``row_for``.
    Returns (T entries, sigma_hat, beta_hat)."""
    nh = estimate.dims.n_half
    t = np.empty((nh, nh))
    a_vec = np.empty(nh)
    for g in range(nh):
        row = estimate.row_for(nh + g)
        t[g] = row.k[:nh] / (2.0 * row.a)
        a_vec[g] = row.a
    return t, 1.0 / np.sqrt(2.0 * a_vec), a_vec


def per_row_extract_gramian(estimate):
    """``extract_gramian`` in loop form, one input row at a time through
    ``row_for`` and ``other_sites``.  Returns (U, balance)."""
    nh, n = estimate.dims.n_half, estimate.dims.n
    beta_in = float(np.mean([estimate.row_for(nh + g).a for g in range(nh)]))
    u = np.empty((nh, nh))
    for al in range(nh):
        row = estimate.row_for(al)
        others = other_sites(al, n)
        sel = others < nh
        u[al, others[sel]] = -row.k[sel] / (2.0 * beta_in)
        u[al, al] = row.a / beta_in
    t = per_row_extract_tm(estimate)[0]
    gram = t.T @ t
    return u, float(np.linalg.norm(u - gram) / np.linalg.norm(gram))
