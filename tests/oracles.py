"""Brute-force references shared by the tests (not collected: no ``test_`` prefix)."""
import math

import numpy as np

from kramers.kernels import _gauss_legendre

# Gauss-Legendre nodes per sub-panel and the widest phase k x a sub-panel spans:
# the rule's relative error for cos at half-phase 8 is about 8^64/64! ~ 5e-32
ORACLE_NODES = 32
ORACLE_PHASE = 16.0
# the tail panels run to L = K + TAIL_PHASE/x; three series terms finish from L
TAIL_PHASE = 4000.0
# ado_kramers' half-range ordinates: equal Gauss-Legendre panels on [0, ADO_MU_MAX]
ADO_PANELS = 6
ADO_NODES = 64
ADO_MU_MAX = 8.0


def _gauss_points(a, b, width):
    """Points and weights of the oracle rule on each [a_i, b_i], split into
    equal sub-panels no wider than ``width``."""
    count = np.maximum(1, np.ceil((b - a) / width)).astype(int)
    piece = np.repeat(np.arange(a.size), count)
    j = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    half = 0.5 * ((b - a) / count)[piece]
    mid = a[piece] + (2 * j + 1) * half
    xi, w = _gauss_legendre(ORACLE_NODES)
    return (mid[:, None] + half[:, None] * xi).ravel(), (half[:, None] * w).ravel()


def _weighted_sum(densities, weights, k):
    """sum_n weights[n] E_n(k), each iterate through its own __call__."""
    return sum(w * d(k) for w, d in zip(weights, densities))


def cosine_oracle_tail(densities, weights, x: float) -> float:
    """``int_K^oo sum_n weights[n] E_n(k) cos(kx) dk`` past the grid edge K:
    c K/(-p-1) per power law of each iterate's tail at x = 0; else the
    oracle rule on [K, L] with L = K + 4000/x, then three terms of the
    asymptotic series at L."""
    k_max = densities[0].grid.k_max
    if x == 0.0:
        return math.fsum(w * d(k_max) * k_max / (-p - 1.0)
                         for w, d in zip(weights, densities) for _, p in d.tails)
    length = TAIL_PHASE / x
    t, w = _gauss_points(np.array([0.0]), np.array([length]), ORACLE_PHASE / x)
    # each phase as K x + t x: k x itself would carry the rounding of k, ~ K x 1e-16
    phase = k_max * x

    def cos_sin(t):
        c, s = np.cos(t * x), np.sin(t * x)
        return math.cos(phase) * c - math.sin(phase) * s, math.sin(phase) * c + math.cos(phase) * s

    panels = math.fsum(w * _weighted_sum(densities, weights, k_max + t) * cos_sin(t)[0])
    end = k_max + length
    cos_end, sin_end = cos_sin(length)
    z = 1.0 / (end * x)
    series = 0.0
    for wn, d in zip(weights, densities):
        for _, p in d.tails:
            b1 = -p * z
            b2 = b1 * (1.0 - p) * z
            b3 = b2 * (2.0 - p) * z
            series += wn * d(end) / x * (cos_end * (b1 - b3) - sin_end * (1.0 - b2))
    return panels + series


def cosine_oracle(densities, weights, x: float) -> float:
    """``int_0^oo sum_n weights[n] E_n(k) cos(kx) dk`` by brute force: the
    oracle rule on every knot piece, split into sub-panels of phase <= 16,
    with the densities evaluated as callables, plus cosine_oracle_tail."""
    knots = densities[0]._knots
    width = ORACLE_PHASE / x if x > 0.0 else math.inf
    k, w = _gauss_points(knots[:-1], knots[1:], width)
    body = math.fsum(w * _weighted_sum(densities, weights, k) * np.cos(k * x))
    return body + cosine_oracle_tail(densities, weights, x)


def ado_kramers(q: float):
    """The BGK Kramers problem at accommodation q in (0, 1] by the analytical
    discrete-ordinates method (Barichello, Camargo, Rodrigues & Siewert,
    ZAMP 52, 2001, 517), which shares no code with the Neumann series.

    On the half-range ordinates mu_i with weights omega_i = w_i e^{-mu_i^2}/sqrt(pi)
    the decaying modes solve M^-2 (I - 2 1 omega^T) U = U/nu^2, here through
    its symmetric similarity transform by diag(sqrt(omega) mu); the zero
    eigenvalue is dropped and Phi+- = (I +- M/nu) U/2.  With the far field
    h = A + x -+ mu, the wall condition h(0, mu_i) = (1 - q) h(0, -mu_i) is one
    N x N solve for the slip A and the mode amplitudes a_j.

    Returns ``(A, u_c)``: the slip for a unit gradient and the Knudsen-layer
    correction u_c(x) = sum_j a_j omega^T U_j e^{-x/nu_j}, so that
    U(x) = A + x + u_c(x).  ``u_c.defect`` is the Knudsen-layer defect
    int_0^oo u_c dx = sum_j a_j omega^T U_j nu_j, exact for these modes.
    """
    xi, w = np.polynomial.legendre.leggauss(ADO_NODES)
    edges = np.linspace(0.0, ADO_MU_MAX, ADO_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mu = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * xi).ravel()
    omega = (half * w).ravel() * np.exp(-mu * mu) / math.sqrt(math.pi)
    root = np.sqrt(omega)
    lam, y = np.linalg.eigh((np.eye(mu.size) - 2.0 * np.outer(root, root)) / np.outer(mu, mu))
    # eigh sorts ascending: the first eigenvalue is the zero one
    nu, u = 1.0 / np.sqrt(lam[1:]), y[:, 1:] / (root * mu)[:, None]
    plus, minus = 0.5 * (1.0 + mu[:, None] / nu) * u, 0.5 * (1.0 - mu[:, None] / nu) * u
    wall = np.column_stack((np.full(mu.size, q), plus - (1.0 - q) * minus))
    solution = np.linalg.solve(wall, (2.0 - q) * mu)
    amplitude = solution[1:] * (omega @ u)  # Phi+ + Phi- = U

    def u_c(x):
        return np.exp(-np.asarray(x, dtype=float)[..., None] / nu) @ amplitude

    u_c.defect = float(amplitude @ nu)
    return float(solution[0]), u_c
