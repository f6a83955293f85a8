"""Simulatable martingale constructions.

Every model guarantees the per-step conditional second-moment bound
E_{i-1}||X_i||^2 <= b_i^2 surely, by construction; where possible the
bound holds with equality so the envelope is tight.  Increments are
symmetric, which makes the partial sums a martingale automatically.

Every model but ``dependent`` also knows its per-step moments
a_i(s) = E||X_i||^s in closed form (:meth:`MartingaleModel.exact_profile`).
:func:`simulate` draws only the norm stream of ||S_n||; the moment stream
of ||X_i|| is formed on first access to
:attr:`SimulationResult.increment_norms`.  Where ||X_i|| = b_i surely
(``rademacher``, ``hilbert``, ``lp``) it is the scale, and draws nothing.

Each Philox block of a stream is computed in row tiles of about
``_TILE_ELEMS`` floats by the model's ``_norm_tile`` (||S_n||, and S_n on
request) or ``_increment_tile`` (||X_i||); the real-line models define
only ``_steps``, from which the base class derives both.  A tile continues
the block's generator where the previous tile stopped, so no output bit
depends on the tile size, and the working memory of a simulation is
O(tile) on top of its outputs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
import math

import numpy as np

from .checks import HilbertSpace, LpSpace
from .core import (
    MomentProfile,
    ValidationError,
    VarianceEnvelope,
    _allocated,
    _checked_array,
    _checked_scalar,
    _checked_int,
    required_exponents,
)
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


class MartingaleModel:
    """Base class: n symmetric steps with per-step envelope ``scale``."""

    kind: str = ""
    # Fewest rows per tile; see DependentModel.
    _min_tile_rows: int = 1
    # Length of a final vector S_n: 1 on the real line.
    _dim: int = 1

    def __init__(self, n: int, scale=1.0) -> None:
        self.n = n = _checked_int("step count n", n, 1)
        if np.ndim(scale) == 0:
            scale = _allocated("step count n", n, lambda: [scale] * n)
        self.scale = _checked_array("scale", scale, positive=True)
        if self.scale.shape != (n,):
            raise ValidationError(f"scale must be a scalar or length-{n} sequence")

    @property
    def smoothness(self) -> float:
        """Two-smoothness constant of the ambient space."""
        return 1.0

    @property
    def _width(self) -> int:
        """Floats drawn per replication."""
        return self.n * self._dim

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

    def _steps(self, gen, rows: int) -> np.ndarray:
        """The (rows, n) real steps X_i, each row computed from its own row
        of one C-ordered draw of ``gen``, so that row tiles of a block give
        the bits of one whole block.  A model without it overrides both
        tile methods under the same rule."""
        raise NotImplementedError

    def _norm_tile(self, gen, rows: int, keep_final: bool) -> tuple:
        """(||S_n|| (rows,), final vectors (rows, dim) or None)."""
        s = self._steps(gen, rows).sum(axis=1)
        return np.abs(s), (s[:, None] if keep_final else None)

    def _increment_tile(self, gen, rows: int) -> np.ndarray:
        """||X_i|| as a (rows, n) array."""
        return np.abs(self._steps(gen, rows))

    def describe(self) -> dict:
        return {"kind": self.kind, "n": self.n, "scale": [float(b) for b in self.scale]}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


def _signs(gen: np.random.Generator, shape) -> np.ndarray:
    return np.where(gen.random(shape) < 0.5, -1.0, 1.0)


class RademacherModel(MartingaleModel):
    """Real scalar steps X_i = b_i * eps_i with Rademacher signs."""

    kind = "rademacher"

    def _steps(self, gen, rows):
        x = _signs(gen, (rows, self.n))
        x *= self.scale
        return x

    def _increment_tile(self, gen, rows):
        return np.broadcast_to(self.scale, (rows, self.n))

    def _moment(self, s):
        return self.scale**s


class UniformModel(MartingaleModel):
    """Real scalar steps b_i * sqrt(3) * U_i, U_i uniform on [-1, 1].

    The sqrt(3) factor makes E X_i^2 = b_i^2, so the envelope is tight.
    """

    kind = "uniform"

    def _steps(self, gen, rows):
        x = gen.random((rows, self.n))
        x *= 2.0
        x -= 1.0
        x *= math.sqrt(3.0) * self.scale
        return x

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
        prob = _checked_scalar("point mass", prob, None)
        if not 0.0 < prob <= 0.5:
            raise ValidationError(f"point mass must lie in (0, 0.5], got {prob}")
        self.prob = prob

    def _steps(self, gen, rows):
        u = gen.random((rows, self.n))
        eps = np.where(u < self.prob, -1.0, np.where(u >= 1.0 - self.prob, 1.0, 0.0))
        return (self.scale / math.sqrt(2.0 * self.prob)) * eps

    def _moment(self, s):
        return 2.0 * self.prob * (self.scale / math.sqrt(2.0 * self.prob)) ** s

    def describe(self) -> dict:
        return {**super().describe(), "prob": self.prob}


class _SphereModel(MartingaleModel):
    """Steps b_i * V_i with V_i = G / ||G|| for a standard Gaussian G in the
    subclass's ``space`` (a ``checks`` space of dimension ``dim``).

    A tile draws G as one (rows, n, dim) array, and S_r = sum_i f_ri G_ri
    with f_ri = b_i / ||G_ri|| (b_i where G_ri = 0) is one ``einsum`` that
    leaves G untouched; each row of S is summed from its own row of G in an
    order fixed by n and dim, so the bits do not depend on the tile shape.
    """

    @property
    def smoothness(self) -> float:
        return self.space.smoothness

    def _norm_tile(self, gen, rows, keep_final):
        g = gen.standard_normal((rows, self.n, self.dim))
        nrm = self.space.norm(g)
        nrm[nrm == 0.0] = 1.0
        s = np.einsum("ijk,ij->ik", g, self.scale / nrm)
        return self.space.norm(s), (s if keep_final else None)

    def _increment_tile(self, gen, rows):
        return np.broadcast_to(self.scale, (rows, self.n))

    def _moment(self, s):
        return self.scale**s


class HilbertModel(_SphereModel):
    """Steps b_i * V_i with V_i uniform on the Euclidean unit sphere."""

    kind = "hilbert"

    def __init__(self, n: int, scale=1.0, dim: int = 3) -> None:
        super().__init__(n, scale)
        self.space = HilbertSpace(dim)
        self.dim = self._dim = self.space.dim

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
        self.dim = self._dim = self.space.dim

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

    def _walk(self, gen, rows, xnorm=None):
        """S_n of ``rows`` walks, and |X_i| = sigma_i into ``xnorm``."""
        # Step i reads its signs from a contiguous row of eps.T.
        eps = np.ascontiguousarray(_signs(gen, (rows, self.n)).T)
        s = np.zeros(rows)
        sigma = np.empty(rows)
        for i in range(self.n):
            np.abs(s, out=sigma)
            np.cos(sigma, out=sigma)
            np.abs(sigma, out=sigma)
            sigma *= self.scale[i]
            if xnorm is not None:
                xnorm[:, i] = sigma
            s += sigma * eps[i]
        return s

    def _norm_tile(self, gen, rows, keep_final):
        s = self._walk(gen, rows)
        return np.abs(s), (s[:, None] if keep_final else None)

    def _increment_tile(self, gen, rows):
        xnorm = np.empty((rows, self.n))
        self._walk(gen, rows, xnorm)
        return xnorm


@dataclass(frozen=True)
class SimulationResult:
    """Samples from two independent streams of one model.

    ``final_norms`` holds ||S_n|| per replication (norm stream) and
    ``increment_norms`` holds ||X_i|| per replication and step (moment
    stream), so moment estimates never share randomness with the norm
    estimate they are compared against.  The moment stream is formed on
    first access, with the seed, blocks and worker count of the norm
    stream, so its bits do not depend on when; where ||X_i|| = b_i surely
    it is the scale.
    """

    final_norms: np.ndarray
    final_vectors: np.ndarray | None
    _model: MartingaleModel = field(repr=False, compare=False)
    _seed: int = field(repr=False, compare=False)
    _threads: int = field(repr=False, compare=False)

    @cached_property
    def increment_norms(self) -> np.ndarray:
        model, reps = self._model, self.final_norms.shape[0]
        xnorm = _allocated("replications", reps, lambda: np.empty((reps, model.n)))
        _run_stream(model, self._seed, MOMENT_STREAM, self._threads,
                    lambda gen, rows: (model._increment_tile(gen, rows),), xnorm)
        return xnorm


def _run_stream(model: MartingaleModel, seed: int, label: str, threads: int, tile, *outs):
    """Fill ``outs`` (replications on the leading axis) with the stream
    ``label``.  Each block of :func:`iter_blocks` has its own generator and
    runs on one of ``threads`` workers, in row tiles of about
    ``_TILE_ELEMS`` floats; ``tile(gen, rows)`` returns a tuple that starts
    with the tile's rows of each array in ``outs``."""
    blocks = iter_blocks(outs[0].shape[0])
    rows = max(model._min_tile_rows, _TILE_ELEMS // model._width)

    def work(task):
        blk, start, stop = task
        gen = block_generator(seed, label, blk)
        for a in range(start, stop, rows):
            b = min(a + rows, stop)
            for out, part in zip(outs, tile(gen, b - a)):
                out[a:b] = part

    if threads == 1 or len(blocks) <= 1:
        for task in blocks:
            work(task)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, blocks))


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
    replications = _checked_int("replications", replications, 1)
    nthreads = worker_count(threads)
    norms = _allocated("replications", replications, lambda: np.empty(replications))
    finals = (_allocated("replications", replications, lambda: np.empty((replications, model._dim)))
              if keep_final else None)
    outs = (norms, finals) if keep_final else (norms,)
    _run_stream(model, seed, NORM_STREAM, nthreads,
                lambda gen, rows: model._norm_tile(gen, rows, keep_final), *outs)
    return SimulationResult(norms, finals, model, seed, nthreads)


_MODELS = {
    cls.kind: cls
    for cls in (RademacherModel, UniformModel, TwoPointModel, HilbertModel, LpModel, DependentModel)
}
MODEL_KINDS = tuple(_MODELS)


def make_model(kind: str, n: int, scale=1.0, **params) -> MartingaleModel:
    """Factory keyed by model kind; extra parameters per kind, with the
    defaults of the class signatures: ``prob`` (two_point), ``p`` and
    ``dim`` (lp), ``dim`` (hilbert)."""
    try:
        cls = _MODELS[kind]
    except KeyError:
        raise ValidationError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}") from None
    return cls(n, scale, **params)


def builtin_models(n: int, scale=1.0) -> list[MartingaleModel]:
    """One default-configured instance of every model kind."""
    return [make_model(kind, n, scale) for kind in MODEL_KINDS]
