"""Grouped sums over fixed-size index subsets, keyed by subset minimum.

The layered bound needs, for each cardinality j, the sum over all j-element
subsets J of {1..n} of ``g(min J - 1) * prod_{i in J} w_i`` (with the empty
subset contributing ``g(n)``).  Grouping subsets by their smallest element k
reduces this to

    sum_{k=1..n} g(k-1) * w_k * e_{j-1}(w_{k+1}, ..., w_n),

where e_r is the elementary symmetric polynomial of the suffix.  Since
e_r(w_k, ...) = sum_{i>=k} w_i e_{r-1}(w_{i+1}, ...), each order of the
suffix polynomials is one vectorised pass, a cumulative sum in reversed
index order, and a single O(n * j) table evaluates every cardinality.

In the bound, g(k) = A_k(s) = a_1(s) + ... + a_k(s) is a prefix sum.
Swapping the two sums counts each pair (i, J) with i < min J once, so the
same layer is

    sum_{i=1..n} a_i(s) * e_j(w_{i+1}, ..., w_n),

which needs no prefix sums and only the current order e_j, streamed one
column at a time through one workspace (`_layer_sums`).  The top layer,
whose prefix values (A_k(2))^(t/2-m) are no sum of per-step values, keeps
the min-grouped form.

Each layer is one array of terms reduced to its correctly rounded sum,
the value ``math.fsum`` returns, so the result does not depend on the
order of the terms.  Long arrays are split error-free into a high part
that sums exactly and a small residual (Rump, Ogita and Oishi's
ExtractVector) in a few float64 array passes, which certify the rounding
or defer to ``math.fsum``.  Every term is >= 0, so a sum that overflows the
float range is +inf.  A direct enumeration oracle is provided for testing.

A :class:`MinGroupedSumSpec` holds read-only float64 copies of its weights
and prefix values, which the kernel reads as they are; like every array
holder of this package, it compares by identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import DomainError, ValidationError, _allocated, _checked_array, _checked_int

__all__ = [
    "MinGroupedSumSpec",
    "elementary_symmetric_suffix",
    "min_grouped_sum",
    "brute_force_min_grouped_sum",
]

_BRUTE_FORCE_MAX_N = 20
# Shortest term array that `_rounded_sum` reduces with `_split_sum`: the measured
# crossover (2 vCPU, Python 3.11, numpy 2.4, products of uniforms).  The split
# sum and ``math.fsum`` of the list took 6.9 and 3.6 us at n = 128, about 7
# to 12 us each at n = 256 (a tie within the host's noise), 7.6 and 15.6 us
# at n = 512, and 0.20 and 6.5 ms at n = 1e5.
_SPLIT_MIN_N = 256
# `_split_sum` certifies totals in [2^-900, 2^1000]: there its error bound
# and the half gaps around the total are normal floats, and no sum overflows.
_SPLIT_MIN_TOTAL = 2.0**-900
_SPLIT_MAX_TOTAL = 2.0**1000


@dataclass(frozen=True, eq=False)
class MinGroupedSumSpec:
    """Inputs of a min-grouped subset sum.

    ``weights`` are the n per-index factors (squared envelope entries in
    the bounds), ``prefix_values`` the n+1 values g(0..n) attached to the
    position just before the subset minimum, and ``j`` the cardinality.
    Any sequences may be passed; the spec stores read-only float64 copies,
    so a later change to the caller's arrays changes nothing.  Arrays have
    no value equality, so specs compare by identity.
    """

    weights: np.ndarray
    prefix_values: np.ndarray
    j: int

    def __post_init__(self) -> None:
        w = _checked_array("weights", self.weights)
        g = _checked_array("prefix values", self.prefix_values)
        if g.shape[0] != w.shape[0] + 1:
            raise ValidationError(
                "need n weights and n+1 prefix values, got "
                f"{w.shape[0]} and {g.shape[0]}"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "prefix_values", g)
        object.__setattr__(self, "j", _checked_int("cardinality j", self.j, 0))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def _suffix_step(
    w_rev: np.ndarray, prev: np.ndarray | None, out: np.ndarray, p: np.ndarray
) -> None:
    """One order up the suffix polynomials, in reversed index order.

    With n weights and ``w_rev`` = w[::-1], ``prev[k]`` = e_{r-1}(w[n-k:])
    for k = 0..n (None for r = 1: e_0 = 1) gives ``out[k]`` = e_r(w[n-k:]):
    out[0] = 0 for the empty suffix, and out[1:] is the cumulative sum of
    w_rev * prev[:n], written through the scratch ``p`` of length n, so
    ``out`` may be ``prev``.
    """
    if prev is not None:
        w_rev = np.multiply(w_rev, prev[:-1], out=p)
    out[0] = 0.0
    np.cumsum(w_rev, out=out[1:])


def elementary_symmetric_suffix(weights: Sequence[float], order: int) -> np.ndarray:
    """Table of elementary symmetric polynomials of weight suffixes.

    Returns an array T of shape (n+1, order+1) with ``T[k, r]`` equal to
    e_r(weights[k:]) for 0-based suffix starts k = 0..n; row n is the
    empty suffix.  e_0 = 1 by the empty-product convention, and order r is
    the reversed cumulative sum of w_k * e_{r-1}(w_{k+1}..).  Entries that
    exceed the float range are +inf, or NaN where a zero weight meets one.
    """
    order = _checked_int("order", order, 0)
    w = np.asarray(weights, dtype=float)
    # Column-major, so that every order is one contiguous column; the steps
    # run on its rows in reversed order.
    table = _allocated("order", order, lambda: np.zeros((w.shape[0] + 1, order + 1), order="F"))
    table[:, 0] = 1.0
    rev, p = table[::-1], np.empty_like(w)
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, order + 1):
            _suffix_step(w[::-1], rev[:, r - 1] if r > 1 else None, rev[:, r], p)
    return table


def _split_sum(terms: np.ndarray, work: np.ndarray | None = None) -> float | None:
    """``math.fsum(terms)`` bit for bit, or None when that is not certified.

    ``terms`` is a 1-d float64 array of n terms >= 0 (NaN and inf only make
    the result None); it is only read.  Round 1 writes into ``work``,
    float64 scratch of at least n entries that must not overlap ``terms``,
    or into a fresh array; a round 2, when needed, into another fresh
    array.  With u = 2^-53, S the exact sum and 2^M >= n + 2, each round
    is ExtractVector (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008) on the current
    values x, |x_i| <= 2^-M sigma for a power of two sigma:

    *Split.*  q_i = fl(fl(sigma + x_i) - sigma) and r_i = x_i - q_i.
    fl(sigma + x_i) lies in [sigma/2, 2 sigma], so the subtraction is
    exact (Sterbenz) and q_i is a multiple of v = max(u sigma, 2^-1074)
    with |q_i| <= 2^-M sigma (rounding is monotone and sigma +- 2^-M sigma
    are floats).  r_i is the rounding error of sigma + x_i, so it is a
    float, |r_i| <= u sigma, and its subtraction is exact too (their
    Lemma 3.3).

    *High part.*  Every partial sum of the q_i is a multiple of v below
    n 2^-M sigma < sigma <= 2^53 v in magnitude, hence a float: T = sum q_i
    is exact in any order.  So S = T_1 + sum r_i after round 1,
    and round 2 splits the r_i again, S = T_1 + T_2 + sum r'_i.

    *Residual.*  R = fl(sum r_i) in whatever order numpy adds, each term
    through at most n - 1 roundings, so |R - sum r_i| <= gamma_(n-1) n u
    sigma with gamma_k = k u / (1 - k u) (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., section 4.2); additions do not
    underflow.  delta = n^2 2^-105 max(sigma, 2^-900) = 2 n^2 u^2
    max(sigma, 2^-900) is above that bound; the factor 2 covers the two
    roundings of its computation, and the floor keeps it normal.

    *Certificate.*  s = fsum(T.., R) and tau = fsum(T.., R, -s): tau is
    T.. + R - s rounded to nearest, within ulp(tau) of it, so S - s lies
    in tau +- e with e = delta + ulp(tau) <= 2 max(delta, ulp(tau)) =: eps
    (exact).  When tau +- eps lies strictly inside (-g_down/2, g_up/2),
    g_up and g_down the gaps from s to its neighbours, S rounds to s,
    which is what ``math.fsum`` returns (it rounds the exact sum to
    nearest).  A rounded comparison fl(tau + eps) < g_up/2 implies the
    exact one because rounding is monotone and g_up/2 is a float, and a
    half-ulp tie never passes.  Totals are certified in [2^-900, 2^1000]:
    there both gaps are normal and exact.  Terms with n max x_i < 2^-900,
    whose total is below that range, are refused before any pass, so round
    1 has sigma > n max x_i >= 2^-900; and sigma <= 2^1022, so every
    sigma + x_i is finite.
    """
    n = terms.shape[0]
    top = float(terms.max()) if n > 1 else math.nan
    # NaN and inf terms, and totals below the certified range, stop here.
    if not (math.isfinite(top) and n * top >= _SPLIT_MIN_TOTAL):
        return None
    if work is None:
        work = np.empty(n)
    M = (n + 1).bit_length()
    x, out, highs = terms, work, []
    while True:
        k = math.frexp(top)[1] + M  # 2^-M sigma = 2^(frexp exponent) > max |x_i|
        if k > 1022:
            return None
        sigma = math.ldexp(1.0, k)
        q = np.add(x, sigma, out=out)
        np.subtract(q, sigma, out=q)
        highs.append(float(q.sum()))
        r = np.subtract(x, q, out=q)
        rest = float(r.sum())
        s = math.fsum([*highs, rest])
        if not _SPLIT_MIN_TOTAL <= s <= _SPLIT_MAX_TOTAL:
            return None
        tau = math.fsum([*highs, rest, -s])
        eps = 2.0 * max(n * n * 2.0**-105 * max(sigma, _SPLIT_MIN_TOTAL), math.ulp(tau))
        if (tau + eps < (math.nextafter(s, math.inf) - s) / 2
                and eps - tau < (s - math.nextafter(s, 0.0)) / 2):
            return s
        if len(highs) == 2:
            return None
        x, out, top = r, np.empty(n), max(float(r.max()), -float(r.min()))


def _rounded_sum(terms: np.ndarray, work: np.ndarray | None = None) -> float:
    """The correctly rounded sum of an array of terms >= 0.

    By `_split_sum` (scratch taken from ``work`` where given) for at least
    ``_SPLIT_MIN_N`` terms when it certifies its result, else by
    ``math.fsum``.  An overflowing sum, and a NaN term (0 * inf left by an
    overflowed factor), both give +inf: the value stays an upper bound.
    """
    if terms.shape[0] >= _SPLIT_MIN_N:
        total = _split_sum(terms, work)
        if total is not None:
            return total
    try:
        total = math.fsum(terms.tolist())
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(total) else total


def _layer_sums(
    A_t: float,
    moments: Sequence[np.ndarray],
    a2: np.ndarray,
    b: np.ndarray,
    unit: float,
    expo: float,
) -> list[float]:
    """The layers T_0..T_m of the layered bound for the weights
    w_i = (b_i / unit)^2.

    ``moments`` are the arrays a(t - 2j) for 0 < j < m, so m is
    ``len(moments) + 1`` >= 1 (t >= 2); ``A_t`` is T_0 = A_n(t).
    Layer 0 < j < m is sum_i a_i(t-2j) e_j(w_{i+1}..w_n), the min-grouped
    sum of prefix values A_k(t-2j) with the two sums swapped.  The top
    layer keeps the min-grouped form with prefix values (A_k(2))^expo
    (0^0 := 1).  Layers with j > n are 0.

    One workspace serves the call: the terms (which also hold the step's
    products and, last, the top layer's prefix values), the suffix column
    e_j in reversed index order, updated in place by `_suffix_step` (only
    for m >= 2), the weights, and n entries of scratch for `_split_sum`
    (only for n >= ``_SPLIT_MIN_N``).  Each layer is reduced by
    `_rounded_sum`.
    """
    n = b.shape[0]
    m = len(moments) + 1
    rows = n + 1 if m >= 2 else 0
    scratch = n if n >= _SPLIT_MIN_N else 0
    work = np.empty(2 * n + 1 + rows + scratch)
    g, col = work[:n + 1], work[n + 1:n + 1 + rows]
    w, split_work = work[n + 1 + rows:2 * n + 1 + rows], work[2 * n + 1 + rows:]
    terms = g[:n]
    np.divide(b, unit, out=w)
    np.multiply(w, w, out=w)
    layers = [float(A_t)]
    with np.errstate(over="ignore", invalid="ignore"):
        for j, a in enumerate(moments, start=1):
            if j > n:
                layers += [0.0] * (m - j)
                break
            _suffix_step(w[::-1], col if j > 1 else None, col, terms)
            layers.append(_rounded_sum(np.multiply(a[::-1], col[:n], out=terms), split_work))
        g[0] = 0.0
        np.cumsum(a2, out=g[1:])
        if expo:
            np.power(g, expo, out=g)
        else:
            g.fill(1.0)
        if m > n:
            layers.append(0.0)
        else:
            top = np.multiply(g[:n], w, out=terms)
            if m > 1:
                np.multiply(top, col[:n][::-1], out=top)
            layers.append(_rounded_sum(top, split_work))
    return layers


def min_grouped_sum(spec: MinGroupedSumSpec, *, esp_table: np.ndarray | None = None) -> float:
    """Sum of ``g(min J - 1) * prod_{i in J} w_i`` over all j-subsets J.

    The empty subset (j = 0) contributes ``g(n)``; j > n yields 0.  An
    ``esp_table`` from :func:`elementary_symmetric_suffix` of order at
    least j - 1 may be supplied to share work across cardinalities.  The
    terms are reduced by `_rounded_sum`.
    """
    n, j = spec.n, spec.j
    if j > n:
        return 0.0
    if j == 0:
        return float(spec.prefix_values[n])
    if esp_table is None:
        esp_table = elementary_symmetric_suffix(spec.weights, j - 1)
    elif esp_table.shape[0] != n + 1 or esp_table.shape[1] < j:
        raise ValidationError("esp_table does not match the spec")
    with np.errstate(over="ignore", invalid="ignore"):
        return _rounded_sum(spec.prefix_values[:n] * spec.weights * esp_table[1:, j - 1])


def brute_force_min_grouped_sum(spec: MinGroupedSumSpec) -> float:
    """Enumeration oracle for :func:`min_grouped_sum` (n <= 20)."""
    n, j = spec.n, spec.j
    if n > _BRUTE_FORCE_MAX_N:
        raise DomainError(
            f"refusing to enumerate subsets for n={n} > {_BRUTE_FORCE_MAX_N}"
        )
    if j > n:
        return 0.0
    if j == 0:
        return float(spec.prefix_values[n])
    w, g = spec.weights.tolist(), spec.prefix_values.tolist()
    total = 0.0
    for subset in combinations(range(1, n + 1), j):
        prod = 1.0
        for i in subset:
            prod *= w[i - 1]
        total += g[min(subset) - 1] * prod
    return total
