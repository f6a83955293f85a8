"""A 60-digit ``decimal`` oracle for the constants and the aggregated bound.

Every quantity is computed from its definition in the ``rosenthal.constants``
docstring, with the beta-family schedule, in decimal arithmetic.  Decimal
has no overflow at these sizes, so values beyond the float range are exact
to far more digits than a float holds.  Floats enter by their exact binary
value.
"""

import math
from decimal import Decimal, localcontext

PREC = 60


def _dec(x) -> Decimal:
    return x if isinstance(x, Decimal) else Decimal(float(x))


def _pow(x: Decimal, e: Decimal) -> Decimal:
    return (x.ln() * e).exp()


def _pq(beta, s: Decimal) -> tuple[Decimal, Decimal]:
    if s == 2:
        return Decimal("0.5"), Decimal("0.5")
    if s <= 3:
        return Decimal(1), Decimal(1)
    beta = _dec(beta)
    return _pow(1 - beta, 3 - s), _pow(beta, 3 - s)


def layers(t, D, beta) -> tuple[list[Decimal], Decimal]:
    """(c_0, ..., c_{m-1}) and c~_m."""
    with localcontext() as ctx:
        ctx.prec = PREC
        t, D = _dec(t), _dec(D)
        c, shared = [], Decimal(1)
        for j in range(int(t // 2)):
            p, q = _pq(beta, t - 2 * j)
            c.append(shared * (t - 2 * j - 2 + D * D) / (t - 2 * j - 1) * q)
            shared *= (t - 2 * j) * (t - 2 * j - 2 + D * D) * p / 2
        return c, shared


def coefficients(t, D, beta, lambdas) -> tuple[Decimal, Decimal]:
    """(C_A, C_B) at explicit balancing parameters."""
    c, top = layers(t, D, beta)
    with localcontext() as ctx:
        ctx.prec = PREC
        t, m = _dec(t), len(c)
        lam = [_dec(x) for x in lambdas]
        ca = sum(
            c[j] * (t - 2 * j - 2) / (t - 2) / (lam[j] ** (2 * j) * math.factorial(j))
            for j in range(m)
        )
        cb = top
        for j in range(1, m + 1):
            cb /= t / 2 - m + j
        for j in range(1, m):
            cb += c[j] * 2 * j / (t - 2) * _pow(lam[j], t - 2 * j - 2) / math.factorial(j)
        return ca, cb


def balanced(t, D, beta, A_t, B) -> tuple[list[Decimal], Decimal]:
    """The per-layer stationary lambdas (2j u_j / ((t-2j-2) v_j))^(1/(t-2)),
    with u_j and v_j built from c_j, and C_A A_t + C_B B^t at them
    (A_t, B > 0)."""
    c, _ = layers(t, D, beta)
    with localcontext() as ctx:
        ctx.prec = PREC
        td, A_t, B = _dec(t), _dec(A_t), _dec(B)
        Bt = _pow(B, td)
        lam = []
        for j, cj in enumerate(c):
            expo = td - 2 * j - 2
            if j == 0 or expo == 0:
                lam.append(Decimal(1))
                continue
            u = cj * expo / (td - 2) * A_t / math.factorial(j)
            v = cj * 2 * j / (td - 2) * Bt / math.factorial(j)
            lam.append(_pow(2 * j * u / (expo * v), 1 / (td - 2)))
        ca, cb = coefficients(t, D, beta, lam)
        return lam, ca * A_t + cb * Bt

