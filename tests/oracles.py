"""Independent oracles the solver tests check against.

Everything here is built from quadrature, root finding and closed
forms only; none of it shares code with the solvers under test.
"""

import itertools

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq


def scalar_flux(t, p, q, a0):
    """g(t) = |t|^(p-2) t + a0 |t|^(q-2) t, strictly increasing on R."""
    return np.sign(t) * (np.abs(t) ** (p - 1.0) + a0 * np.abs(t) ** (q - 1.0))


def scalar_flux_inverse(y, p, q, a0):
    """g^{-1}(y) by bracketing + brentq."""
    if y == 0.0:
        return 0.0
    hi = 1.0
    while scalar_flux(hi, p, q, a0) < abs(y):
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("flux inverse bracket failed")
    root = brentq(lambda t: scalar_flux(t, p, q, a0) - abs(y), 0.0, hi, xtol=1e-15, rtol=1e-15)
    return root if y > 0.0 else -root


def flux_inversion_solution(p, q, a0, eps, g0, g1, xs, gauss_order=8):
    """Exact 1D solution of -(g(u'))' = eps, u(0)=g0, u(1)=g1 on [0,1].

    Integrating the equation gives g(u'(x)) = C - eps x; the constant C
    is fixed by the boundary values via a shooting integral, and u is
    recovered by per-interval Gauss quadrature of g^{-1}(C - eps t).
    """
    nodes, weights = leggauss(gauss_order)

    def du(ts, C):
        return np.array([scalar_flux_inverse(C - eps * t, p, q, a0) for t in ts])

    def integral(C, lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return half * float(np.dot(weights, du(mid + half * nodes, C)))

    def shoot(C):
        return integral(C, 0.0, 1.0) - (g1 - g0)

    c_lo = c_hi = scalar_flux(g1 - g0, p, q, a0) + eps / 2.0
    step = max(1.0, abs(eps))
    while shoot(c_lo) > 0.0:
        c_lo -= step
    while shoot(c_hi) < 0.0:
        c_hi += step
    C = brentq(shoot, c_lo, c_hi, xtol=1e-14, rtol=1e-15)

    xs = np.asarray(xs, dtype=float)
    out = np.empty_like(xs)
    out[0] = g0 + (integral(C, 0.0, xs[0]) if xs[0] > 0.0 else 0.0)
    for i in range(1, len(xs)):
        out[i] = out[i - 1] + integral(C, xs[i - 1], xs[i])
    return out


def lowered_parabola_obstacle_solution(A, B, xs):
    """Exact obstacle solution for -u'' >= 0, u >= A - B(x-1/2)^2,
    u(0) = u(1) = 0 on [0,1], requiring 0 < A < B/4.

    The solution is linear and tangent to the parabola from each
    boundary point, with contact in between; the tangency point is
    t = sqrt(1/4 - A/B).
    """
    if not 0.0 < A < B / 4.0:
        raise ValueError("need 0 < A < B/4 for interior contact")
    t = np.sqrt(0.25 - A / B)
    slope = -2.0 * B * (t - 0.5)
    xs = np.asarray(xs, dtype=float)
    psi = A - B * (xs - 0.5) ** 2
    left = slope * xs
    right = slope * (1.0 - xs)
    out = np.where(xs < t, left, np.where(xs > 1.0 - t, right, psi))
    return out, t, slope


def radial_p_harmonic(pts, p, n=2):
    """u(r) = r^((p-n)/(p-1)), the radial p-harmonic profile (p != n)."""
    r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
    return r ** ((p - n) / (p - 1.0))


def radial_p_harmonic_jet(pt, p, n=2):
    """(gradient, hessian) of the radial p-harmonic profile at one point."""
    pt = np.asarray(pt, dtype=float)
    r = float(np.linalg.norm(pt))
    k = (p - n) / (p - 1.0)
    f1 = k * r ** (k - 1.0)
    f2 = k * (k - 1.0) * r ** (k - 2.0)
    rh = pt / r
    grad = f1 * rh
    hess = f2 * np.outer(rh, rh) + (f1 / r) * (np.eye(len(pt)) - np.outer(rh, rh))
    return grad, hess


def quartic_harmonic(pts):
    """x^4 - 6 x^2 y^2 + y^4: harmonic, and not annihilated by the
    five-point stencil (unlike quadratics on this mesh)."""
    x = pts[:, 0]
    y = pts[:, 1]
    return x**4 - 6.0 * x**2 * y**2 + y**4


def quadratic_lower_envelope(coords, target, radius):
    """min_m [ target_m + |x - x_m|^2 / (2 radius) ] by brute force over
    all node pairs."""
    diff = coords[:, None, :] - coords[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    return np.min(target[None, :] + d2 / (2.0 * radius), axis=1)


def doubling_maximizer(coords, u, v, j, s):
    """(x_index, y_index, Psi) maximizing Psi = u(x) - v(y) - (j/s)|x - y|^s
    by exhaustive search; ties go to the lexicographically smallest pair."""
    dist = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
    psi = u[:, None] - v[None, :] - (j / s) * dist ** s
    flat = int(np.argmax(psi))
    return flat // len(v), flat % len(v), float(psi.reshape(-1)[flat])


def _touching_slopes(grid, u, node, count, rng):
    """(slope, curvature) pairs of the quadratics touching u from below at
    ``node``, one candidate at a time: the difference-quotient fan, topped
    up by one seeded perturbation per missing candidate, then the smallest
    curvature keeping each quadratic a margin below u at the other nodes."""
    coords = grid.coords
    p0, u0 = coords[node], u[node]
    scale = 1.0 + float(np.max(np.abs(u)))
    margin = 1e-12 * scale
    steps = [(1, float(h)) for h in grid.spacing[:1]]
    if len(grid.shape) == 2:
        steps.append((grid.shape[0], float(grid.spacing[1])))
    fans = [
        [(u[node + k] - u0) / h, (u0 - u[node - k]) / h, (u[node + k] - u[node - k]) / (2 * h)]
        for k, h in steps
    ]
    cands = [np.array(c) for c in itertools.product(*fans)]
    base_count = len(cands)
    slope_scale = float(np.max(np.abs(np.array(cands))))
    if slope_scale > 1e-13 * scale:
        while len(cands) < count + 8:
            cands.append(cands[len(cands) % base_count]
                         + rng.normal(scale=0.3 * slope_scale, size=len(grid.shape)))
    diff_all = coords - p0
    d2 = np.sum(diff_all * diff_all, axis=1)
    d2[node] = np.inf
    out = []
    for b in cands:
        if len(out) >= count:
            break
        if np.linalg.norm(b) <= 1e-13 * (1.0 + slope_scale):
            continue
        gap = u0 - u + diff_all @ b + margin
        out.append((b, max(float(np.max(2.0 * gap / d2)), margin)))
    return out


def touch_loop(field, params, count, epsilon, seed, per_node=5):
    """The touch test one (quadratic, neighbor) pair at a time: quadratics
    from :func:`_touching_slopes` at the nodes of a seeded shuffle, and at
    each grid neighbor y the operator written out on the jet
    (y, b - K (y - x0), -K I). Pairs with a vanishing gradient are skipped
    at p < 2. Returns one (point, slope, curvature, value, scale, passed)
    per quadratic; value is the max over the neighbors, and scale the
    largest |S tr X| + |Gamma w.Xw| + |T| among them."""
    grid, u = field.grid, field.values
    p, q, coeff = params.p, params.q, params.coeff
    n = len(grid.shape)
    rng = np.random.default_rng(seed)
    tolerance = 10.0 * (1.0 + float(np.max(np.abs(u)))) * float(np.max(grid.spacing))
    nodes = grid.interior_idx.copy()
    rng.shuffle(nodes)
    nx = grid.shape[0]
    offsets = [-1, 1] if n == 1 else [-nx - 1, -nx, -nx + 1, -1, 1, nx - 1, nx, nx + 1]
    out = []
    for node in nodes:
        if len(out) >= count:
            break
        x0 = grid.coords[node]
        for b, K in _touching_slopes(grid, u, node, min(per_node, count - len(out)), rng):
            X = -K * np.eye(n)
            values, scales = [], []
            for off in offsets:
                y = grid.coords[node + off]
                eta = b + X @ (y - x0)
                r = float(np.sqrt(eta @ eta))
                if r == 0.0 and p < 2.0:
                    continue
                w = eta / r if r > 0.0 else eta
                a = float(coeff.value(y))
                fp, fq = r ** (p - 2.0), a * r ** (q - 2.0)
                S, gam = fp + fq, (p - 2.0) * fp + (q - 2.0) * fq
                T = r ** (q - 2.0) * float(eta @ coeff.grad_value(y))
                main, side = S * float(np.trace(X)), gam * float(w @ X @ w)
                values.append(-(main + side) - T)
                scales.append(abs(main) + abs(side) + abs(T))
            if values:
                value = max(values)
                out.append((x0.copy(), b.copy(), K, value, max(scales), value >= epsilon - tolerance))
    return out


def dense_from_band(band, symmetric):
    """Dense matrix held in LAPACK band storage, read entry by entry.

    ``symmetric``: the lower triangle in the pbsv layout, A[i, j] at row
    i - j of column j (i >= j), with bw + 1 rows. Otherwise the gbsv
    layout, A[i, j] at row 2 bw + i - j of column j, with 3 bw + 1 rows
    whose top bw rows are pivot room.
    """
    lead, n = band.shape
    bw = lead - 1 if symmetric else (lead - 1) // 3
    top = 0 if symmetric else 2 * bw
    A = np.zeros((n, n))
    for j in range(n):
        for i in range(j if symmetric else max(0, j - bw), min(n, j + bw + 1)):
            A[i, j] = band[top + i - j, j]
    if symmetric:
        A += np.tril(A, -1).T
    return A


def quadratic_obstacle_solution(shape, spacing, a, eps, g, psi):
    """Exact minimizer of 1/2 u^T K u - f^T u over u >= psi, u = g on the
    boundary, by a dense primal-dual active set iteration.

    At p = q = 2 with constant a the P1 energy on the right triangles of
    the grid is this quadratic: K is (1 + a) times the 3-point (1D) or
    5-point stencil whose axis-d edges weigh prod(h) / h_d^2 (hy/hx and
    hx/hy in 2D, 1/h in 1D), and f is eps * prod(h). ``g`` and ``psi``
    are nodal arrays in natural order (x fastest); only the boundary
    entries of ``g`` are read. K is an M-matrix, so the iteration of
    Hintermueller, Ito & Kunisch (SIAM J. Optim. 2002) ends in finitely
    many steps at the exact solution. A node joins the active set only by
    more than 1e-12, so that rounding on a weakly active node (u = psi
    and multiplier 0) cannot make two sets alternate.
    """
    shape = tuple(shape)
    h = np.asarray(spacing, dtype=float)
    ids = np.arange(int(np.prod(shape))).reshape(shape[::-1])
    n = ids.size
    K = np.zeros((n, n))
    for axis, hd in enumerate(h[::-1]):  # array axes run (y, x) in 2D
        w = (1.0 + a) * float(np.prod(h)) / hd ** 2
        lo = np.take(ids, np.arange(ids.shape[axis] - 1), axis=axis).ravel()
        hi = np.take(ids, np.arange(1, ids.shape[axis]), axis=axis).ravel()
        K[lo, lo] += w
        K[hi, hi] += w
        K[lo, hi] -= w
        K[hi, lo] -= w
    inner = np.zeros(ids.shape, dtype=bool)
    inner[tuple(slice(1, -1) for _ in shape)] = True
    inner = inner.ravel()
    A = K[inner][:, inner]
    rhs = eps * float(np.prod(h)) - K[inner][:, ~inner] @ g[~inner]
    lo = psi[inner]

    u = np.linalg.solve(A, rhs)  # unconstrained start, multiplier 0
    lam = np.zeros_like(u)
    active = None
    for _ in range(len(u) + 2):
        new = lam + (lo - u) > 1e-12
        if active is not None and np.array_equal(new, active):
            break
        active = new
        free = ~active
        u = lo.copy()
        u[free] = np.linalg.solve(A[free][:, free], rhs[free] - A[free][:, active] @ lo[active])
        lam = A @ u - rhs
        lam[free] = 0.0
    else:
        raise RuntimeError("primal-dual active set iteration did not settle")
    out = np.array(g, dtype=float)
    out[inner] = u
    return out


def finite_difference_jacobian(residual_at, values, nodes, neighbors, step=1e-7):
    """Difference Jacobian of a nodal residual, and its one-sided spread.

    Entry [k, l] is about the derivative of ``residual_at(v, nodes[k])`` in
    ``v[nodes[l]]`` at ``v = values``, for the nodes ``nodes[l]`` listed in
    ``neighbors(nodes[k])``; the other entries are 0. The forward and
    backward quotients are the second-order ones of three points each;
    J is their mean and ``spread`` their distance. Where the residual is
    smooth within 2 ``step`` both are the derivative to O(step^2). Where a
    piecewise smooth residual switches branch within that reach, each
    one-sided derivative lies within spread / 2 of J.
    """
    values = np.array(values, dtype=float)
    col = {int(node): l for l, node in enumerate(nodes)}
    J = np.zeros((len(nodes), len(nodes)))
    spread = np.zeros_like(J)
    for k, node in enumerate(nodes):
        base = residual_at(values, node)
        for nb in neighbors(node):
            if nb not in col:
                continue
            saved = values[nb]
            f = {}
            for j in (-2, -1, 1, 2):
                values[nb] = saved + j * step
                f[j] = residual_at(values, node)
            values[nb] = saved
            fwd = (4.0 * f[1] - f[2] - 3.0 * base) / (2.0 * step)
            bwd = (3.0 * base - 4.0 * f[-1] + f[-2]) / (2.0 * step)
            J[k, col[nb]] = 0.5 * (fwd + bwd)
            spread[k, col[nb]] = abs(fwd - bwd)
    return J, spread


def element_tables(grid):
    """Gather tables of the P1 elements, built from ``grid.coords`` and
    ``grid.shape`` alone: (connectivity (e, dim + 1), gradient coefficients
    (e, dim + 1, dim), measures (e,), centroids (e, dim)).

    A 1D cell is one segment; a 2D cell is split along its lower-left to
    upper-right diagonal into the lower (00, 10, 11) and the upper
    (00, 11, 01) triangle. Elements are listed type by type, cells in node
    order within a type. A vertex' hat function has the gradient
    -1/length, +1/length in 1D and perp(opposite edge) / (2 signed area)
    in 2D.
    """
    ids = np.arange(int(np.prod(grid.shape))).reshape(grid.shape[::-1])
    if len(grid.shape) == 1:
        conn = np.column_stack([ids[:-1], ids[1:]])
    else:
        n00, n10, n11, n01 = ids[:-1, :-1], ids[:-1, 1:], ids[1:, 1:], ids[1:, :-1]
        conn = np.vstack([
            np.column_stack([n00.ravel(), n10.ravel(), n11.ravel()]),
            np.column_stack([n00.ravel(), n11.ravel(), n01.ravel()]),
        ])
    verts = grid.coords[conn]
    e1 = verts[:, 1, :] - verts[:, 0, :]
    if len(grid.shape) == 1:
        signed = e1[:, 0]
        gcoef = np.tile([[-1.0], [1.0]], (len(conn), 1, 1))
    else:
        e2 = verts[:, 2, :] - verts[:, 0, :]
        signed = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]  # twice the signed area
        gcoef = np.empty((len(conn), 3, 2))
        for i in range(3):
            edge = verts[:, (i + 2) % 3, :] - verts[:, (i + 1) % 3, :]
            gcoef[:, i, 0] = -edge[:, 1]
            gcoef[:, i, 1] = edge[:, 0]
    return conn, gcoef / signed[:, None, None], np.abs(signed) / len(grid.shape), verts.mean(axis=1)


class ElementAssembly:
    """The P1 double-phase energy assembled element by element: gathers of
    the nodal values through the tables of :func:`element_tables`,
    ``einsum`` and ``np.add.at``, with the law S = m^(p-2) + a m^(q-2),
    Gamma = (p-2) m^(p-2) + (q-2) a m^(q-2) written out again. ``coeff``
    maps points (k, dim) to a; it is read at the element centroids, and
    m = sqrt(|Du|^2 + delta^2).
    """

    def __init__(self, grid, p, q, coeff, eps):
        self.grid, self.p, self.q, self.eps = grid, p, q, eps
        self.conn, self.gcoef, self.weights, centroids = element_tables(grid)
        self.a_e = coeff(centroids)
        k = self.conn.shape[1]
        self.load = np.zeros(grid.n_nodes)
        np.add.at(self.load, self.conn, np.repeat(self.weights[:, None] / k, k, axis=1))

    def _modulus(self, values, delta):
        G = np.einsum("eki,ek->ei", self.gcoef, values[self.conn])
        return G, np.sqrt(np.sum(G * G, axis=1) + delta * delta)

    def energy(self, values, delta):
        """(energy, scale): scale sums the absolute values of its terms."""
        _G, m = self._modulus(values, delta)
        dens = float(np.sum(self.weights * (m ** self.p / self.p + self.a_e * m ** self.q / self.q)))
        source = self.eps * float(np.dot(self.load, values))
        return dens - source, dens + abs(source)

    def residual_full(self, values, delta):
        """(residual at every node, scale): scale is the largest sum of
        absolute element contributions at one node."""
        G, m = self._modulus(values, delta)
        S = np.zeros_like(m)
        pos = m > 0.0
        S[pos] = m[pos] ** (self.p - 2.0) + self.a_e[pos] * m[pos] ** (self.q - 2.0)
        contrib = np.einsum("eki,ei->ek", self.gcoef, S[:, None] * G) * self.weights[:, None]
        r = np.zeros(self.grid.n_nodes)
        np.add.at(r, self.conn, contrib)
        size = np.zeros(self.grid.n_nodes)
        np.add.at(size, self.conn, np.abs(contrib))
        return r - self.eps * self.load, float(np.max(size + self.eps * self.load))

    def jacobian(self, values, delta, active=None):
        """Dense Newton matrix over ``grid.interior_idx``: the element
        matrices |e| (S grad phi_k . grad phi_l + Gamma/m^2 (grad phi_k . Du)
        (grad phi_l . Du)) summed by ``np.add.at``. Nodes in the nodal mask
        ``active`` get identity rows and columns."""
        G, m = self._modulus(values, delta)
        fp = m ** (self.p - 2.0)
        fq = self.a_e * m ** (self.q - 2.0)
        S, gam = fp + fq, (self.p - 2.0) * fp + (self.q - 2.0) * fq
        gram = np.einsum("eki,eli->ekl", self.gcoef, self.gcoef)
        d = np.einsum("eki,ei->ek", self.gcoef, G)
        B = self.weights[:, None, None] * (
            S[:, None, None] * gram + (gam / m ** 2)[:, None, None] * d[:, :, None] * d[:, None, :]
        )
        k = self.conn.shape[1]
        K = np.zeros((self.grid.n_nodes,) * 2)
        np.add.at(K, (np.repeat(self.conn, k, axis=1), np.tile(self.conn, (1, k))), B.reshape(len(B), -1))
        interior = self.grid.interior_idx
        K = K[np.ix_(interior, interior)]
        if active is not None:
            on = active[interior]
            K[on] = K[:, on] = 0.0
            K[on, on] = 1.0
        return K
