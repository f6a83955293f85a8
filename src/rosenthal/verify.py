"""Monte-Carlo verification: estimate E||S_n||^t for a simulatable model
and check it against the computed bounds.

The bound is evaluated on the model's exact per-step moments a_i(s) where
it has a closed form (every built-in model but ``dependent``).  Otherwise
they are estimated on the moment stream, which is independent of the norm
stream that estimates E||S_n||^t, so the two sides of the inequality never
share randomness.

An estimated a_i(s) is the column mean of x**s over the (R, n) moment
stream x, reduced in row tiles of about ``models._TILE_ELEMS`` floats: one
buffer holds a carry row of running column sums above the tile raised to
s, and one axis-0 sum folds the tile in.  numpy sums a C-ordered (R, n >= 2)
array over axis 0 row by row, so the means equal ``(x ** s).mean(axis=0)``
bit for bit while the scratch is about one tile, not R * n floats.  One
column (n = 1) is summed pairwise, so there the column is one tile of R
floats, the size of the stream.  An input that is not C-ordered is copied
to C order first, so the estimate does not depend on memory layout.

``check_from_simulation`` and ``estimate_and_check`` check 2 <= t <=
``MAX_T`` through ``core._check_t``, the one check of the exponent domain,
before they simulate or estimate anything.

The check passes when

    estimate - 3 * standard_error <= layered bound

(a one-sided three-sigma margin; with a valid bound the false-alarm
probability per check is about 0.3%).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import corollary_bound, theorem_bound
from .core import (
    BoundReport,
    MomentProfile,
    ValidationError,
    _check_t,
    _entries_ok,
    required_exponents,
)
from .models import _TILE_ELEMS, MartingaleModel, SimulationResult, simulate
from .schedules import PQSchedule, default_schedule

__all__ = [
    "VerificationReport",
    "empirical_profile",
    "check_from_simulation",
    "estimate_and_check",
]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one Monte-Carlo bound check.

    ``profile`` is ``"exact"`` when the bound used the model's closed-form
    moments and ``"estimated"`` when it used the moment stream; ``z`` is
    (estimate - bound) / std_error, or None when std_error is 0.
    """

    model: dict
    t: float
    estimate: float
    std_error: float
    bound: BoundReport
    corollary: BoundReport | None
    slack: float | None
    passed: bool
    replications: int
    seed: int
    profile: str
    z: float | None

    def to_dict(self) -> dict:
        return {
            "model": dict(self.model),
            "t": self.t,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "bound": self.bound.to_dict(),
            "corollary": None if self.corollary is None else self.corollary.to_dict(),
            "slack": self.slack,
            "passed": self.passed,
            "replications": self.replications,
            "seed": self.seed,
            "profile": self.profile,
            "z": self.z,
        }


def empirical_profile(
    model: MartingaleModel, t: float, increment_norms: np.ndarray
) -> MomentProfile:
    """Moment profile estimated from sampled per-step increment norms, a
    (replications, n) array-like of finite entries >= 0."""
    try:
        x = np.ascontiguousarray(increment_norms, dtype=float)
    except (TypeError, ValueError):
        raise ValidationError("increment_norms must be an array of numbers") from None
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] != model.n:
        raise ValidationError(
            f"increment_norms must be a (replications, {model.n}) array with "
            f"replications >= 1, got shape {x.shape}"
        )
    return MomentProfile(model.n, t, _stream_means(x, required_exponents(t)))


def _stream_means(x: np.ndarray, exponents) -> dict[float, np.ndarray]:
    """``(x ** s).mean(axis=0)`` for each s, bit for bit, in one sweep over
    row tiles of the C-ordered (R, n) array x (see the module docstring):
    row 0 of the buffer carries an exponent's column sums into the next
    tile, and the first tile has no carry.  Each tile's entries are checked
    once, while it is in cache."""
    R, n = x.shape
    rows = R if n == 1 else min(R, max(1, _TILE_ELEMS // n))
    buf = np.empty((rows + 1, n))
    sums = {}
    for a in range(0, R, rows):
        tile = x[a:a + rows]
        if not _entries_ok(tile):
            raise ValidationError("increment_norms must be finite and >= 0")
        carry = 1 if a else 0
        k = carry + tile.shape[0]
        part = buf[carry:k]
        for s in exponents:
            if carry:
                buf[0] = sums[s]
            # The ufunc of the operator: numpy computes ``x ** 2.0`` as np.square.
            if s == 2.0:
                np.square(tile, out=part)
            else:
                np.power(tile, s, out=part)
            sums[s] = np.add.reduce(buf[:k], axis=0)
    return {s: total / R for s, total in sums.items()}


def check_from_simulation(
    model: MartingaleModel,
    sim: SimulationResult,
    t: float,
    schedule: PQSchedule | None = None,
    *,
    seed: int | None = None,
) -> VerificationReport:
    """Bound check against an existing simulation (shared across exponents)
    of ``model`` itself; ``seed``, where given, must be the simulation's,
    which the report records."""
    _check_t(t, "verification needs")
    if model is not sim._model:
        raise ValidationError(f"model {model.kind} (n={model.n}) is not the simulated model")
    if seed is not None and seed != sim._seed:
        raise ValidationError(f"seed {seed} is not the simulation's seed {sim._seed}")
    schedule = schedule or default_schedule()
    replications = int(sim.final_norms.shape[0])

    profile = model.exact_profile(t)
    exact = profile is not None
    if not exact:
        profile = empirical_profile(model, t, sim.increment_norms)
    envelope = model.envelope()
    D = model.smoothness

    powers = sim.final_norms**t
    estimate = float(powers.mean())
    if replications > 1:
        std_error = float(powers.std(ddof=1) / math.sqrt(replications))
    else:
        std_error = 0.0

    bound = theorem_bound(profile, envelope, D, schedule)
    coro = (
        corollary_bound(profile, envelope, D, schedule, lambdas="optimize")
        if t > 2.0
        else None
    )
    lower = estimate - 3.0 * std_error
    passed = lower <= bound.value and (coro is None or lower <= coro.value)
    return VerificationReport(
        model=model.describe(),
        t=float(t),
        estimate=estimate,
        std_error=std_error,
        bound=bound,
        corollary=coro,
        slack=(bound.value / estimate) if estimate > 0.0 else None,
        passed=passed,
        replications=replications,
        seed=int(sim._seed),
        profile="exact" if exact else "estimated",
        z=(estimate - bound.value) / std_error if std_error > 0.0 else None,
    )


def estimate_and_check(
    model: MartingaleModel,
    t: float,
    schedule: PQSchedule | None = None,
    seed: int = 0,
    replications: int = 100_000,
    *,
    threads: int | None = None,
) -> VerificationReport:
    """Simulate a model and check the bounds at exponent t >= 2."""
    _check_t(t, "verification needs")
    sim = simulate(model, seed, replications, threads=threads)
    return check_from_simulation(model, sim, t, schedule)
