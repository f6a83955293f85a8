"""Simulatable martingale constructions.

Every model guarantees the per-step conditional second-moment bound
E_{i-1}||X_i||^2 <= b_i^2 surely, by construction; where possible the
bound holds with equality so the envelope is tight.  Increments are
symmetric, which makes the partial sums a martingale automatically.

Every model but ``dependent`` also knows its per-step moments
a_i(s) = E||X_i||^s in closed form (:meth:`MartingaleModel.exact_profile`).
:func:`simulate` draws only the norm stream of ||S_n||; the moment stream
of ||X_i|| is drawn on first access to
:attr:`SimulationResult.increment_norms`.

Each Philox block is simulated in row tiles of about ``_TILE_ELEMS``
floats, so the working memory of a simulation is O(tile) on top of its
outputs.  A tile continues the block's generator where the previous tile
stopped, so no output bit depends on the tile size.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .checks import HilbertSpace, LpSpace
from .core import MomentProfile, ValidationError, VarianceEnvelope, required_exponents
from .rng import block_generator, iter_blocks, worker_count

__all__ = [
    "MartingaleModel",
    "RademacherModel",
    "UniformModel",
    "TwoPointModel",
    "HilbertModel",
    "LpModel",
    "DependentModel",
    "SimulationResult",
    "simulate",
    "make_model",
    "builtin_models",
    "MODEL_KINDS",
]

MOMENT_STREAM = "moments"
NORM_STREAM = "norms"

# Floats drawn per tile (512 KiB): a tile's temporaries fit a core's L2
# cache, and the work per numpy call still dwarfs its fixed overhead.
_TILE_ELEMS = 65536


def _as_scale(scale, n: int) -> np.ndarray:
    arr = np.asarray(scale, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    if arr.shape != (n,):
        raise ValidationError(f"scale must be a scalar or length-{n} sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
        raise ValidationError("every scale entry must be finite and > 0")
    arr.setflags(write=False)
    return arr


class MartingaleModel(ABC):
    """Base class: n symmetric steps with per-step envelope ``scale``."""

    kind: str = ""
    # Fewest rows per tile; see DependentModel.
    _min_tile_rows: int = 1

    def __init__(self, n: int, scale=1.0) -> None:
        if int(n) != n or n < 1:
            raise ValidationError(f"step count n must be an integer >= 1, got {n}")
        self.n = int(n)
        self.scale = _as_scale(scale, self.n)

    @property
    def smoothness(self) -> float:
        """Two-smoothness constant of the ambient space."""
        return 1.0

    @property
    def _width(self) -> int:
        """Floats drawn per replication."""
        return self.n

    def envelope(self) -> VarianceEnvelope:
        """The conditional-variance envelope the construction guarantees."""
        return VarianceEnvelope(self.scale)

    def _moment(self, s: float) -> np.ndarray | None:
        """Exact per-step moments a_i(s) = E||X_i||^s, or None if unknown."""
        return None

    def exact_profile(self, t: float) -> MomentProfile | None:
        """The true moment profile at exponent t, or None when the model
        has no closed form for its per-step moments."""
        moments = {s: self._moment(s) for s in required_exponents(t)}
        if any(a is None for a in moments.values()):
            return None
        return MomentProfile(self.n, t, moments, exact=True)

    @abstractmethod
    def _simulate_block(
        self, gen: np.random.Generator, size: int, keep_final: bool, increments: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """(final norms (size,), increment norms (size, n), final vectors).

        Each call draws exactly one C-ordered array from ``gen`` with the
        ``size`` replications on its leading axis, and computes every
        output row from its own row of that draw.  Since a generator
        continues its stream across calls, simulating a block in
        consecutive row tiles gives the bits of one whole-block call.

        Without ``increments`` a model may return None for the increment
        norms instead of computing them; the other outputs keep their bits.
        """

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n, "scale": [float(b) for b in self.scale]}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


def _signs(gen: np.random.Generator, shape) -> np.ndarray:
    return np.where(gen.random(shape) < 0.5, -1.0, 1.0)


class RademacherModel(MartingaleModel):
    """Real scalar steps X_i = b_i * eps_i with Rademacher signs."""

    kind = "rademacher"

    def _simulate_block(self, gen, size, keep_final, increments=True):
        x = _signs(gen, (size, self.n))
        x *= self.scale
        s = x.sum(axis=1)
        xnorm = np.broadcast_to(self.scale, (size, self.n))
        return np.abs(s), xnorm, (s[:, None] if keep_final else None)

    def _moment(self, s):
        return self.scale**s


class UniformModel(MartingaleModel):
    """Real scalar steps b_i * sqrt(3) * U_i, U_i uniform on [-1, 1].

    The sqrt(3) factor makes E X_i^2 = b_i^2, so the envelope is tight.
    """

    kind = "uniform"

    def _simulate_block(self, gen, size, keep_final, increments=True):
        x = gen.random((size, self.n))
        x *= 2.0
        x -= 1.0
        x *= math.sqrt(3.0) * self.scale
        s = x.sum(axis=1)
        xnorm = np.abs(x) if increments else None
        return np.abs(s), xnorm, (s[:, None] if keep_final else None)

    def _moment(self, s):
        return (math.sqrt(3.0) * self.scale) ** s / (s + 1.0)


class TwoPointModel(MartingaleModel):
    """Real steps taking values 0 and +-b_i/sqrt(2p).

    P(X_i = +-b_i/sqrt(2p)) = p each and X_i = 0 otherwise, so
    E X_i^2 = b_i^2 exactly.  As p decreases the increments grow heavy
    tailed and the moment ratio A_n(t)/B_n^t blows up, the regime in which
    the coefficient of A_n(t) is the binding one.
    """

    kind = "two_point"

    def __init__(self, n: int, scale=1.0, prob: float = 0.1) -> None:
        super().__init__(n, scale)
        if not 0.0 < prob <= 0.5:
            raise ValidationError(f"point mass must lie in (0, 0.5], got {prob}")
        self.prob = float(prob)

    def _simulate_block(self, gen, size, keep_final, increments=True):
        u = gen.random((size, self.n))
        eps = np.where(u < self.prob, -1.0, np.where(u >= 1.0 - self.prob, 1.0, 0.0))
        x = (self.scale / math.sqrt(2.0 * self.prob)) * eps
        s = x.sum(axis=1)
        xnorm = np.abs(x) if increments else None
        return np.abs(s), xnorm, (s[:, None] if keep_final else None)

    def _moment(self, s):
        return 2.0 * self.prob * (self.scale / math.sqrt(2.0 * self.prob)) ** s

    def describe(self) -> dict:
        return {**super().describe(), "prob": self.prob}


class _SphereModel(MartingaleModel):
    """Steps b_i * V_i with V_i = G / ||G|| for a standard Gaussian G in the
    subclass's ``space`` (a ``checks`` space of dimension ``dim``)."""

    @property
    def smoothness(self) -> float:
        return self.space.smoothness

    @property
    def _width(self) -> int:
        return self.n * self.dim

    def _simulate_block(self, gen, size, keep_final, increments=True):
        g = gen.standard_normal((size, self.n, self.dim))
        nrm = self.space.norm(g)
        nrm[nrm == 0.0] = 1.0
        g /= nrm[..., None]
        g *= self.scale[None, :, None]
        s = g.sum(axis=1)
        xnorm = np.broadcast_to(self.scale, (size, self.n))
        return self.space.norm(s), xnorm, (s if keep_final else None)

    def _moment(self, s):
        return self.scale**s


class HilbertModel(_SphereModel):
    """Steps b_i * V_i with V_i uniform on the Euclidean unit sphere."""

    kind = "hilbert"

    def __init__(self, n: int, scale=1.0, dim: int = 3) -> None:
        super().__init__(n, scale)
        self.space = HilbertSpace(dim)
        self.dim = int(dim)

    def describe(self) -> dict:
        return {**super().describe(), "dim": self.dim}


class LpModel(_SphereModel):
    """Steps b_i * V_i with V_i a symmetric unit vector of l_p norm (p >= 2).

    The ambient space is l_p^d with smoothness constant sqrt(p - 1).
    """

    kind = "lp"

    def __init__(self, n: int, scale=1.0, p: float = 3.0, dim: int = 8) -> None:
        super().__init__(n, scale)
        self.space = LpSpace(p, dim)
        self.p = float(p)
        self.dim = int(dim)

    def describe(self) -> dict:
        return {**super().describe(), "p": self.p, "dim": self.dim}


class DependentModel(MartingaleModel):
    """Real steps with genuinely dependent conditional scales.

    X_i = sigma_i * eps_i where sigma_i = b_i * |cos(|S_{i-1}|)| is
    measurable with respect to the past and bounded by b_i, so the
    envelope condition holds surely while consecutive steps are dependent.
    (A sine modulation would freeze the walk at S_0 = 0; cosine starts it
    at full scale.)
    """

    kind = "dependent"
    # The step loop makes a few numpy calls per step on (rows,) vectors, so
    # short tiles multiply their fixed cost: at n = 500 on a 2-vCPU host,
    # 131-row tiles took 1.4-1.8 times as long as whole blocks, and
    # 1024-row tiles no longer.
    _min_tile_rows = 1024

    def _simulate_block(self, gen, size, keep_final, increments=True):
        eps = _signs(gen, (size, self.n))
        s = np.zeros(size)
        xnorm = np.empty((size, self.n))
        for i in range(self.n):
            sigma = self.scale[i] * np.abs(np.cos(np.abs(s)))
            xnorm[:, i] = sigma
            s = s + sigma * eps[:, i]
        return np.abs(s), xnorm, (s[:, None] if keep_final else None)


@dataclass(frozen=True)
class SimulationResult:
    """Samples from two independent streams of one model.

    ``final_norms`` holds ||S_n|| per replication (norm stream) and
    ``increment_norms`` holds ||X_i|| per replication and step (moment
    stream), so moment estimates never share randomness with the norm
    estimate they are compared against.  The moment stream is drawn on
    first access, with the seed, blocks and worker count of the norm
    stream, so its bits do not depend on when it is drawn.
    """

    final_norms: np.ndarray
    final_vectors: np.ndarray | None
    _model: MartingaleModel = field(repr=False, compare=False)
    _seed: int = field(repr=False, compare=False)
    _threads: int = field(repr=False, compare=False)

    @cached_property
    def increment_norms(self) -> np.ndarray:
        xnorm, _ = _run_stream(
            self._model, self._seed, MOMENT_STREAM, self.final_norms.shape[0],
            self._threads, False,
        )
        return xnorm


def _run_stream(
    model: MartingaleModel,
    seed: int,
    label: str,
    replications: int,
    threads: int,
    keep_final: bool,
):
    """Run every block of one stream, each in row tiles of about
    ``_TILE_ELEMS`` floats.  The moment stream keeps the increment norms
    (replications, n), any other stream the final norms (replications,);
    final vectors are kept only with ``keep_final``."""
    moments = label == MOMENT_STREAM
    out = np.empty((replications, model.n) if moments else replications)
    finals = None
    blocks = iter_blocks(replications)
    rows = max(model._min_tile_rows, _TILE_ELEMS // model._width)

    def work(task):
        nonlocal finals
        blk, start, stop = task
        gen = block_generator(seed, label, blk)
        for a in range(start, stop, rows):
            b = min(a + rows, stop)
            s, x, f = model._simulate_block(gen, b - a, keep_final, moments)
            out[a:b] = x if moments else s
            if keep_final:
                if finals is None:
                    finals = np.empty((replications, f.shape[1]))
                finals[a:b] = f

    if keep_final:
        # Allocate up front from a probe of the final-vector width so the
        # threaded path never races on lazy allocation.
        work(blocks[0])
        blocks = blocks[1:]
    if threads == 1 or len(blocks) <= 1:
        for task in blocks:
            work(task)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))
    return out, finals


def simulate(
    model: MartingaleModel,
    seed: int,
    replications: int,
    *,
    threads: int | None = None,
    keep_final: bool = False,
) -> SimulationResult:
    """Draw the norm stream of a model (the moment stream follows on
    demand); deterministic in (model, seed, replications) regardless of
    worker count."""
    if int(replications) != replications or replications < 1:
        raise ValidationError(
            f"replications must be an integer >= 1, got {replications}"
        )
    replications = int(replications)
    nthreads = worker_count(threads)
    snorm, finals = _run_stream(
        model, seed, NORM_STREAM, replications, nthreads, keep_final
    )
    return SimulationResult(snorm, finals, model, seed, nthreads)


MODEL_KINDS = ("rademacher", "uniform", "two_point", "hilbert", "lp", "dependent")


def make_model(kind: str, n: int, scale=1.0, **params) -> MartingaleModel:
    """Factory keyed by model kind; extra parameters per kind:
    ``prob`` (two_point), ``p`` and ``dim`` (lp), ``dim`` (hilbert)."""
    classes = {
        "rademacher": RademacherModel,
        "uniform": UniformModel,
        "two_point": TwoPointModel,
        "hilbert": HilbertModel,
        "lp": LpModel,
        "dependent": DependentModel,
    }
    try:
        cls = classes[kind]
    except KeyError:
        raise ValidationError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}") from None
    return cls(n, scale, **params)


def builtin_models(n: int, scale=1.0) -> list[MartingaleModel]:
    """One default-configured instance of every model kind."""
    return [
        RademacherModel(n, scale),
        UniformModel(n, scale),
        TwoPointModel(n, scale, prob=0.1),
        HilbertModel(n, scale, dim=3),
        LpModel(n, scale, p=3.0, dim=8),
        DependentModel(n, scale),
    ]
