"""Grouped sums over fixed-size index subsets, keyed by subset minimum.

The layered bound needs, for each cardinality j, the sum over all j-element
subsets J of {1..n} of ``g(min J - 1) * prod_{i in J} w_i`` (with the empty
subset contributing ``g(n)``).  Grouping subsets by their smallest element k
reduces this to

    sum_{k=1..n} g(k-1) * w_k * e_{j-1}(w_{k+1}, ..., w_n),

where e_r is the elementary symmetric polynomial of the suffix, so a single
O(n * j) table of suffix polynomials evaluates every cardinality.  Since
e_r(w_k, ...) = sum_{i>=k} w_i e_{r-1}(w_{i+1}, ...), each order of the
table is one vectorised pass: a reversed cumulative sum.  Each cardinality
is then one array of terms reduced to its correctly rounded sum, the value
``math.fsum`` returns, so the result does not depend on the order of the
terms.  Long arrays are reduced by an error-free pairwise fold in a few
float64 array passes, which certifies its rounding or defers to
``math.fsum``.  Every term is >= 0, so a sum that overflows the float range
is +inf.  A direct enumeration oracle is provided for testing.

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

from .core import DomainError, ValidationError, _checked_array

__all__ = [
    "MinGroupedSumSpec",
    "elementary_symmetric_suffix",
    "min_grouped_sum",
    "brute_force_min_grouped_sum",
]

_BRUTE_FORCE_MAX_N = 20
# Shortest term array that `_layer_sum` reduces with `_fold_sum`: the measured
# crossover (2 vCPU, Python 3.11, numpy 2.4, products of uniforms).  The fold
# and ``math.fsum`` of the list took 72 and 38 us at n = 1024, 78 and 74 us
# at n = 2048, 83 and 172 us at n = 4096, and 0.44 and 5.3 ms at n = 1e5.
_FOLD_MIN_N = 2048
# The fold certifies totals in [2^-900, 2^1000]: there its error bound and
# the half gaps around the total are normal floats, and no sum overflows.
_FOLD_MIN_TOTAL = 2.0**-900
_FOLD_MAX_TOTAL = 2.0**1000


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
        if int(self.j) != self.j or self.j < 0:
            raise ValidationError(f"cardinality j must be an integer >= 0, got {self.j}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "prefix_values", g)
        object.__setattr__(self, "j", int(self.j))

    @property
    def n(self) -> int:
        return self.weights.shape[0]


def elementary_symmetric_suffix(weights: Sequence[float], order: int) -> np.ndarray:
    """Table of elementary symmetric polynomials of weight suffixes.

    Returns an array T of shape (n+1, order+1) with ``T[k, r]`` equal to
    e_r(weights[k:]) for 0-based suffix starts k = 0..n; row n is the
    empty suffix.  e_0 = 1 by the empty-product convention, and order r is
    the reversed cumulative sum of w_k * e_{r-1}(w_{k+1}..).  Entries that
    exceed the float range are +inf, or NaN where a zero weight meets one.
    """
    if int(order) != order or order < 0:
        raise ValidationError(f"order must be an integer >= 0, got {order}")
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    # Column-major, so that every order is one contiguous column.
    table = np.zeros((n + 1, int(order) + 1), order="F")
    table[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(1, int(order) + 1):
            table[:n, r] = np.cumsum((w * table[1:, r - 1])[::-1])[::-1]
    return table


def _fold_sum(terms: np.ndarray) -> float | None:
    """``math.fsum(terms)`` bit for bit, or None when that is not certified.

    ``terms`` is a 1-d float64 array of terms >= 0 (NaN and inf only make
    the result None).  With u = 2^-53 and S the exact sum:

    *Fold.*  A level takes the m current values x, pairs x[i] with
    x[m-h+i] for i < h = floor(m/2) (a middle value of odd m passes
    through), and replaces each pair a, b by s = fl(a + b).  TwoSum (Knuth)
    gives the error e = (a - (s - bb)) + (b - bb), bb = s - a, exactly:
    a + b = s + e.  After d = ceil(log2 n) levels one value H is left, and
    S = H + E exactly, where E sums every e.

    *Size of E.*  Round to nearest gives |e| <= u (a + b).  Every value is
    a rounded sum of terms >= 0, so the values of a level sum to at most
    (1+u)^(k-1) S before level k, and sum |e| <= d u (1+u)^(d-1) S.  Each
    term enters H through at most d roundings, so H >= (1-u)^d S.

    *Errors of E.*  The errors fold alongside in ``lo``:
    lo[i] <- fl(fl(lo[i] + lo[m-h+i]) + e[i]).  An error of level k meets
    one rounding then and at most two per later level, at most 2d - 1 in
    all, so the computed L obeys |E - L| <= gamma_(2d-1) sum |e|, with
    gamma_k = k u / (1 - k u) (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., Lemma 3.1).  Together

        |S - (H + L)| <= gamma_(2d-1) d u (1+u)^(d-1) (1-u)^(-d) H
                       < 3 d^2 u^2 H                  (d < 64 for any array),

    and delta = d^2 2^-104 H = 4 d^2 u^2 H, computed with one rounding
    (the power of two scales exactly), is above it.

    *Certificate.*  TwoSum once more gives H + L = r + tau exactly, so
    S - r lies in [tau - delta, tau + delta].  When that interval lies
    strictly inside (-g_down/2, g_up/2), g_up and g_down the gaps from r to
    its neighbours, S rounds to r, which is what ``math.fsum`` returns (it
    rounds the exact sum to nearest).  Both gaps are exact, the bounds
    on the total keep them and delta normal, and a rounded comparison
    fl(tau + delta) < g_up/2 implies the exact one because rounding is
    monotone and g_up/2 is a float.  A half-ulp tie never passes.
    """
    n = terms.shape[0]
    if n < 2:
        return None
    # Level 1 reads ``terms``; later levels alternate between two buffers.
    m = n - n // 2
    hi, spare, lo = np.empty(m), np.empty(m - m // 2), np.zeros(m)
    t, v = np.empty(n // 2), np.empty(n // 2)
    x, m, d = terms, n, 0
    with np.errstate(over="ignore", invalid="ignore"):
        while m > 1:
            h = m // 2
            a, b = x[:h], x[m - h : m]
            s = np.add(a, b, out=hi[:h])
            bb = np.subtract(s, a, out=t[:h])
            av = np.subtract(s, bb, out=v[:h])
            e = np.add(np.subtract(a, av, out=av), np.subtract(b, bb, out=bb), out=av)
            lo_h = lo[:h]
            if d:
                np.add(lo_h, lo[m - h : m], out=lo_h)
            np.add(lo_h, e, out=lo_h)
            if m % 2:
                hi[h] = x[h]
            x, hi, spare = hi, spare, hi
            m -= h
            d += 1
    H, L = float(x[0]), float(lo[0])
    if not _FOLD_MIN_TOTAL <= H <= _FOLD_MAX_TOTAL:
        return None
    r = H + L
    z = r - H
    tau = (H - (r - z)) + (L - z)
    delta = d * d * H * 2.0**-104
    half_up = (math.nextafter(r, math.inf) - r) / 2
    half_down = (r - math.nextafter(r, 0.0)) / 2
    if tau + delta < half_up and delta - tau < half_down:
        return r
    return None


def _layer_sum(g: np.ndarray, w: np.ndarray, esp_table: np.ndarray | None, j: int) -> float:
    """The min-grouped sum of cardinality j for weight and prefix arrays.

    The terms are reduced to their correctly rounded sum: by `_fold_sum`
    for n >= ``_FOLD_MIN_N`` when it certifies its result, else by
    ``math.fsum``.  Every term is >= 0, so an overflowing sum, and a
    0 * inf term left by an overflowed table entry, both give +inf: the
    value stays an upper bound.  ``esp_table`` is only read when
    0 < j <= n.
    """
    n = w.shape[0]
    if j > n:
        return 0.0
    if j == 0:
        return float(g[n])
    with np.errstate(over="ignore", invalid="ignore"):
        terms = g[:n] * w * esp_table[1:, j - 1]
    if n >= _FOLD_MIN_N:
        total = _fold_sum(terms)
        if total is not None:
            return total
    try:
        total = math.fsum(terms.tolist())
    except OverflowError:
        return math.inf
    return math.inf if math.isnan(total) else total


def min_grouped_sum(spec: MinGroupedSumSpec, *, esp_table: np.ndarray | None = None) -> float:
    """Sum of ``g(min J - 1) * prod_{i in J} w_i`` over all j-subsets J.

    The empty subset (j = 0) contributes ``g(n)``; j > n yields 0.  An
    ``esp_table`` from :func:`elementary_symmetric_suffix` of order at
    least j - 1 may be supplied to share work across cardinalities.
    """
    n, j = spec.n, spec.j
    if 0 < j <= n:
        if esp_table is None:
            esp_table = elementary_symmetric_suffix(spec.weights, j - 1)
        elif esp_table.shape[0] != n + 1 or esp_table.shape[1] < j:
            raise ValidationError("esp_table does not match the spec")
    return _layer_sum(spec.prefix_values, spec.weights, esp_table, j)


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
