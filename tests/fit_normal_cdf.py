"""Fit the coefficients of the batch normal cdf in linexsel.kernels with mpmath.

    PYTHONPATH=src python tests/fit_normal_cdf.py

`kernels.std_normal_cdf_batch` writes Phi(-t) = exp(-t^2/2) P(t) / Q(t) for
t >= 0, the form W. J. Cody gives erfc on his middle interval (Math. Comp. 23
(1969), 631-637), here stretched over the whole range t in [0, T_MAX] where
Phi(-t) does not round to 0. This script fits P (degree 9) and a monic Q
(degree 10) to g(t) = exp(t^2/2) Phi(-t) at 50 digits: Sanathanan-Koerner
iterations give a relative least-squares fit on Chebyshev nodes, then Lawson
reweighting moves it towards the minimax fit. It prints the literals for
`kernels._CDF_P` and `kernels._CDF_Q`, whether they equal the checked-in ones, and
the largest relative error of the double coefficients on a dense grid, both
in exact arithmetic and through the double Horner scheme kernels uses.
Nothing is downloaded; a run takes about 15 s.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

T_MAX = 40.0  # exp(-T_MAX^2/2) underflows to 0
DEG_P, DEG_Q = 9, 10
NODES = 6 * (DEG_P + DEG_Q + 2)
SK_ITERATIONS, LAWSON_ITERATIONS = 8, 30

mp.mp.dps = 50


def g(t):
    return mp.exp(t * t / 2) * mp.erfc(t / mp.sqrt(2)) / 2


def _poly(coeffs, t):
    return mp.polyval(coeffs[::-1], t)


def fit() -> tuple[list, list]:
    """Ascending coefficients (P, Q) of the near-minimax relative fit; Q is monic."""
    nodes = [T_MAX / 2 * (1 + mp.cos(mp.pi * (k + mp.mpf(0.5)) / NODES)) for k in range(NODES)]
    values = [g(t) for t in nodes]
    q_prev = [mp.mpf(1)] * NODES
    weights = [mp.mpf(1)] * NODES
    best = None
    for it in range(SK_ITERATIONS + LAWSON_ITERATIONS):
        # P(t) - g(t) Q(t) = 0 with q_n = 1, scaled by the previous g Q so the
        # residual measures relative error
        rows, rhs = [], []
        for t, gt, qp, w in zip(nodes, values, q_prev, weights):
            s = mp.sqrt(w) / (gt * qp)
            rows.append([s * t**i for i in range(DEG_P + 1)] + [-s * gt * t**j for j in range(DEG_Q)])
            rhs.append(s * gt * t**DEG_Q)
        sol, _ = mp.qr_solve(mp.matrix(rows), mp.matrix(rhs))
        p = [sol[i] for i in range(DEG_P + 1)]
        q = [sol[DEG_P + 1 + j] for j in range(DEG_Q)] + [mp.mpf(1)]
        q_prev = [_poly(q, t) for t in nodes]
        errs = [(_poly(p, t) / qt - gt) / gt for t, gt, qt in zip(nodes, values, q_prev)]
        worst = max(abs(e) for e in errs)
        if best is None or worst < best[0]:
            best = (worst, p, q)
        if it >= SK_ITERATIONS:
            total = mp.fsum(w * abs(e) for w, e in zip(weights, errs))
            weights = [w * abs(e) / total for w, e in zip(weights, errs)]
    return best[1], best[2]


def max_errors(p: list[float], q: list[float], points: int = 4001) -> tuple[float, float]:
    """Largest relative error of P/Q in units of 2^-52: exact arithmetic, double Horner."""
    ts = np.linspace(0.0, T_MAX, points)
    num = np.zeros_like(ts)
    den = np.zeros_like(ts)
    for c in p[::-1]:
        num = num * ts + c
    for c in q[::-1]:
        den = den * ts + c
    exact = horner = mp.mpf(0)
    pm, qm = [mp.mpf(c) for c in p], [mp.mpf(c) for c in q]
    for t, r in zip(ts.tolist(), (num / den).tolist()):
        ref = g(mp.mpf(t))
        exact = max(exact, abs(_poly(pm, t) / _poly(qm, t) / ref - 1))
        horner = max(horner, abs(r / ref - 1))
    eps = mp.mpf(2) ** -52
    return float(exact / eps), float(horner / eps)


def main() -> None:
    p, q = (tuple(float(c) for c in cs) for cs in fit())
    print(f"_CDF_P = {p!r}")
    print(f"_CDF_Q = {q!r}")
    try:
        from linexsel import kernels

        print("equal to the checked-in literals:", (p, q) == (kernels._CDF_P, kernels._CDF_Q))
    except ImportError:
        print("linexsel not importable; set PYTHONPATH=src to compare with kernels")
    exact, horner = max_errors(list(p), list(q))
    print(f"max relative error on [0, {T_MAX}]: {exact:.2f} ulp exact, {horner:.2f} ulp in doubles")


if __name__ == "__main__":
    main()
