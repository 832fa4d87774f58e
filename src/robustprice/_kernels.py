"""Enumeration kernels for the brute-force verification oracle.

Enumerates every two- and three-point distribution supported on a grid,
solves the moment system for the masses, and tracks the minimum of the
competitive-ratio and revenue objectives at a fixed price p.

Two interchangeable implementations are provided: a loop kernel, compiled
with numba when numba is installed (the optional ``fast`` extra), and a
vectorized numpy kernel used otherwise.  The numpy kernel is one stream
of scored member blocks, read by one running minimum per objective: every
feasible pair, then the triples in one block per first support point,
drawn from the pair index and kept to those whose triangle can hold
(mu, s).  Both kernels visit the feasible candidates in the same
lexicographic order and break ties by first occurrence, so results are
bit-comparable.
"""

from __future__ import annotations

import numpy as np

# Masses below -MASS_TOL mark an infeasible candidate; the rest are
# clamped to zero.  DET_TOL skips near-singular moment systems, which are
# nearly-collinear supports already covered by two-point candidates.
MASS_TOL = 1e-10
DISP_TOL = 1e-9
DET_TOL = 1e-12


def _enumerate_impl(g, phi, mu, s, p, disp_tol, mass_tol):
    """Loop kernel; compiled with numba when available.

    Returns (cr_min, rev_min, cr_sup, cr_mas, rev_sup, rev_mas, n_feasible)
    where the witness arrays have length 3 with trailing NaN padding.
    """
    n = g.shape[0]
    best_cr = np.inf
    best_rev = np.inf
    cr_sup = np.full(3, np.nan)
    cr_mas = np.full(3, np.nan)
    rev_sup = np.full(3, np.nan)
    rev_mas = np.full(3, np.nan)
    n_feasible = 0
    for i in range(n):
        xi = g[i]
        fi = phi[i]
        for j in range(i + 1, n):
            d = g[j] - xi
            wj = (mu - xi) / d
            wi = 1.0 - wj
            if wi < -mass_tol or wj < -mass_tol:
                continue
            if abs(fi * wi + phi[j] * wj - s) > disp_tol:
                continue
            if wi < 0.0:
                wi = 0.0
            if wj < 0.0:
                wj = 0.0
            n_feasible += 1
            t_p = 0.0
            if xi >= p:
                t_p += wi
            if g[j] >= p:
                t_p += wj
            rev = p * t_p
            opt = rev
            if xi > 0.0:
                v = xi * (wi + wj)
                if v > opt:
                    opt = v
            v = g[j] * wj
            if v > opt:
                opt = v
            cr = rev / opt if opt > 0.0 else 1.0
            if cr < best_cr:
                best_cr = cr
                cr_sup[0] = xi
                cr_sup[1] = g[j]
                cr_sup[2] = np.nan
                cr_mas[0] = wi
                cr_mas[1] = wj
                cr_mas[2] = np.nan
            if rev < best_rev:
                best_rev = rev
                rev_sup[0] = xi
                rev_sup[1] = g[j]
                rev_sup[2] = np.nan
                rev_mas[0] = wi
                rev_mas[1] = wj
                rev_mas[2] = np.nan
    for i in range(n):
        xi = g[i]
        fi = phi[i]
        for j in range(i + 1, n):
            xj = g[j] - xi
            fj = phi[j] - fi
            for k in range(j + 1, n):
                xk = g[k] - xi
                fk = phi[k] - fi
                det = xj * fk - xk * fj
                scale = abs(xj * fk) + abs(xk * fj)
                if abs(det) <= DET_TOL * scale:
                    continue
                bm = mu - xi
                bs = s - fi
                wj = (bm * fk - xk * bs) / det
                wk = (xj * bs - bm * fj) / det
                wi = 1.0 - wj - wk
                if wi < -mass_tol or wj < -mass_tol or wk < -mass_tol:
                    continue
                if wi < 0.0:
                    wi = 0.0
                if wj < 0.0:
                    wj = 0.0
                if wk < 0.0:
                    wk = 0.0
                n_feasible += 1
                t_p = 0.0
                if xi >= p:
                    t_p += wi
                if g[j] >= p:
                    t_p += wj
                if g[k] >= p:
                    t_p += wk
                rev = p * t_p
                opt = rev
                if xi > 0.0:
                    v = xi * (wi + wj + wk)
                    if v > opt:
                        opt = v
                v = g[j] * (wj + wk)
                if v > opt:
                    opt = v
                v = g[k] * wk
                if v > opt:
                    opt = v
                cr = rev / opt if opt > 0.0 else 1.0
                if cr < best_cr:
                    best_cr = cr
                    cr_sup[0] = xi
                    cr_sup[1] = g[j]
                    cr_sup[2] = g[k]
                    cr_mas[0] = wi
                    cr_mas[1] = wj
                    cr_mas[2] = wk
                if rev < best_rev:
                    best_rev = rev
                    rev_sup[0] = xi
                    rev_sup[1] = g[j]
                    rev_sup[2] = g[k]
                    rev_mas[0] = wi
                    rev_mas[1] = wj
                    rev_mas[2] = wk
    return best_cr, best_rev, cr_sup, cr_mas, rev_sup, rev_mas, n_feasible


def _blocks_numpy(g, phi, mu, s, p, disp_tol, mass_tol):
    """Scored feasible members in blocks, in the loop kernel's order.

    Yields (supports, masses, cr, rev): the support and mass columns of a
    block's members and their two objectives.  Every feasible pair comes
    as one block, then the triples (i, j, k) whose triangle can hold
    (mu, s), one block per first index i, whose first support column is
    the scalar x_i.

    (J, K) lists the pairs j < k row by row, so the pairs with i < j form
    the tail of that list starting at row i + 1 and no triple index is
    built.  With P_x = (x, phi(x)) and h_ab the height at mu of the line
    through P_a and P_b, convexity of phi puts (mu, s) in triangle
    i < j < k iff h_ik >= s, h_ij <= s and h_jk <= s.  For x_i <= mu,
    h_ik and h_ij rise with the moving index, so k >= kmin(i) and
    j <= j1(i): the block is the pair rows i + 1 .. j1(i), kept where
    k >= kmin(i) and h_jk <= s.  No triangle with x_i > mu holds mu.

    Every test carries a slack, so the blocks hold every triple the
    arithmetic below accepts and the minima, witnesses and counts are
    those of the full enumeration.  A barycentric mass is the height
    violation of its opposite edge over the vertical extent of its
    vertex, and every extent is at most D = (max phi - min phi)
    + max |chord slope| * span.  A height slack of 1e-7 D (and 1e-7 span
    on x_i) therefore drops only triples with an exact mass below -1e-7,
    a thousand times MASS_TOL, which leaves that factor for the rounding
    of the heights and the masses.  kmin and j1 count the heights past
    their bounds instead of searching for the crossing, so rounding near
    the crossing can only widen the block.
    """
    n = g.size
    J, K = np.triu_indices(n, 1)
    pairs = np.stack([g[J], g[K], phi[J], phi[K]])
    gJ, gK, fJ, fK = pairs
    wj = (mu - gJ) / (gK - gJ)
    wi = 1.0 - wj
    feas = (wi >= -mass_tol) & (wj >= -mass_tol)
    feas &= np.abs(fJ * wi + fK * wj - s) <= disp_tol
    if feas.any():
        xi, xj = gJ[feas], gK[feas]
        wi = np.clip(wi[feas], 0.0, None)
        wj = np.clip(wj[feas], 0.0, None)
        t_p = np.where(xi >= p, wi, 0.0) + np.where(xj >= p, wj, 0.0)
        rev = p * t_p
        opt = np.maximum(rev, np.where(xi > 0, xi * (wi + wj), 0.0))
        opt = np.maximum(opt, xj * wj)
        cr = np.where(opt > 0, rev / np.where(opt > 0, opt, 1.0), 1.0)
        yield (xi, xj), (wi, wj), cr, rev

    row_start = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))
    span = g[-1] - g[0]
    height = fJ + (fK - fJ) / (gK - gJ) * (mu - gJ)
    slack = 1e-7 * (np.ptp(phi) + np.max(np.abs(np.diff(phi) / np.diff(g))) * span)
    under = height <= s + slack
    for i in range(n - 2):
        xi, fi = g[i], phi[i]
        if xi > mu + 1e-7 * span:
            break
        b, e, kmin = row_start[i + 1], row_start[-1], i + 2
        if xi <= mu:
            row = slice(row_start[i], b)    # the pairs (i, k), k > i
            kmin = i + 1 + np.count_nonzero(height[row] < s - slack)
            e = row_start[min(i + np.count_nonzero(under[row]), n - 2) + 1]
        sel = np.flatnonzero(under[b:e] & (K[b:e] >= kmin)) + b
        if sel.size == 0:
            continue
        xj, xk, fj, fk = pairs.take(sel, axis=1)
        dxj, dxk = xj - xi, xk - xi
        dfj, dfk = fj - fi, fk - fi
        jk, kj = dxj * dfk, dxk * dfj
        det = jk - kj
        ok = np.abs(det) > DET_TOL * (np.abs(jk) + np.abs(kj))
        if not ok.all():
            det = np.where(ok, det, 1.0)
        bm, bs = mu - xi, s - fi
        wj = (bm * dfk - dxk * bs) / det
        wk = (dxj * bs - bm * dfj) / det
        wi = 1.0 - wj - wk
        feas = ok & (wi >= -mass_tol) & (wj >= -mass_tol) & (wk >= -mass_tol)
        nf = int(np.count_nonzero(feas))
        if nf == 0:
            continue
        if nf < sel.size:
            xj, xk, wi, wj, wk = xj[feas], xk[feas], wi[feas], wj[feas], wk[feas]
        wi, wj, wk = np.maximum(wi, 0.0), np.maximum(wj, 0.0), np.maximum(wk, 0.0)
        t_p = ((wi if xi >= p else 0.0) + np.where(xj >= p, wj, 0.0)
               + np.where(xk >= p, wk, 0.0))
        rev = p * t_p
        opt = np.maximum(rev, xi * (wi + wj + wk) if xi > 0 else 0.0)
        opt = np.maximum(opt, xj * (wj + wk))
        opt = np.maximum(opt, xk * wk)
        pos = opt > 0
        cr = rev / opt if pos.all() else np.where(pos, rev / np.where(pos, opt, 1.0), 1.0)
        yield (xi, xj, xk), (wi, wj, wk), cr, rev


def _enumerate_numpy(g, phi, mu, s, p, disp_tol, mass_tol):
    """Vectorized equivalent of the loop kernel: one running minimum per
    objective over the blocks of :func:`_blocks_numpy`.

    argmin takes a block's first minimum and only a strictly smaller one
    replaces the best, so ties keep the loop kernel's first occurrence.
    A witness is the block's row at the minimum, NaN-padded to length 3.
    """
    best = [np.inf, np.inf]
    wit = [(np.full(3, np.nan), np.full(3, np.nan)) for _ in best]
    n_feasible = 0
    for sup, mas, cr, rev in _blocks_numpy(g, phi, mu, s, p, disp_tol, mass_tol):
        n_feasible += cr.size
        for o, obj in enumerate((cr, rev)):
            a = int(np.argmin(obj))
            if obj[a] < best[o]:
                best[o] = float(obj[a])
                wit[o] = tuple(np.array([c[a] if np.ndim(c) else c for c in cols]
                                        + [np.nan] * (3 - len(cols)))
                               for cols in (sup, mas))
    return (*best, *wit[0], *wit[1], n_feasible)


def _build_kernel():
    try:
        from numba import njit
    except ImportError:
        return _enumerate_numpy, "numpy"
    return njit(cache=True)(_enumerate_impl), "numba"


_KERNEL, KERNEL_BACKEND = _build_kernel()


def enumerate_min(g, phi, mu, s, p):
    """Minimum CR and revenue over grid-supported 2-/3-point members.

    A pair's dispersion error scales like phi, so its bound does too:
    DISP_TOL * (max phi - min phi).  Returns (cr_min, rev_min,
    (cr_supports, cr_masses), (rev_supports, rev_masses), n_feasible);
    witness arrays carry NaN padding in the third slot for two-point
    witnesses.
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    phi = np.ascontiguousarray(phi, dtype=np.float64)
    cr, rev, cs, cm, rs, rm, nf = _KERNEL(g, phi, float(mu), float(s), float(p),
                                          float(DISP_TOL * np.ptp(phi)), MASS_TOL)
    return cr, rev, (cs, cm), (rs, rm), nf
