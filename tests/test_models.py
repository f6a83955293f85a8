import math
import tracemalloc

import numpy as np
import pytest

from rosenthal import (
    DependentModel,
    HilbertModel,
    LpModel,
    RademacherModel,
    TwoPointModel,
    UniformModel,
    ValidationError,
    builtin_models,
    make_model,
    simulate,
)
from rosenthal import models
from rosenthal.models import MODEL_KINDS
from rosenthal.rng import (
    BLOCK_SIZE, THREADS_ENV_VAR, block_generator, iter_blocks, stream_key, worker_count,
)
from rosenthal.verify import check_from_simulation


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValidationError):
            LpModel(5, p=1.5)
        with pytest.raises(ValidationError):
            HilbertModel(5, dim=0)
        with pytest.raises(ValidationError):
            TwoPointModel(5, prob=0.0)
        with pytest.raises(ValidationError):
            TwoPointModel(5, prob=0.6)
        for prob in ("0.1", None):
            with pytest.raises(ValidationError, match="^point mass must be a number, got"):
                TwoPointModel(3, 1.0, prob=prob)
        with pytest.raises(ValidationError, match=r"^point mass must lie in \(0, 0.5\], got 0.0$"):
            TwoPointModel(3, 1.0, prob=0.0)
        with pytest.raises(ValidationError):
            RademacherModel(0)
        with pytest.raises(ValidationError):
            RademacherModel(3, scale=0.0)
        with pytest.raises(ValidationError):
            RademacherModel(3, scale=[1.0, 1.0])  # wrong length

    def test_scale_is_a_read_only_copy(self):
        scale = np.array([1.0, 2.0])
        model = RademacherModel(2, scale)
        scale[0] = 5.0  # the caller's array stays writeable and apart
        assert model.scale.tolist() == [1.0, 2.0] and not model.scale.flags.writeable
        assert RademacherModel(3, 2).scale.tolist() == [2.0, 2.0, 2.0]

    def test_sphere_models_keep_attributes_and_messages(self):
        h, lp = HilbertModel(4, dim=3.0), LpModel(4, p=3, dim=8.0)
        assert (type(h.dim), h.smoothness, h.describe()["dim"]) == (int, 1.0, 3)
        assert (lp.p, lp.dim, lp.smoothness) == (3.0, 8, math.sqrt(2.0))
        assert {"p": 3.0, "dim": 8}.items() <= lp.describe().items()
        with pytest.raises(ValidationError, match=r"dimension must be an integer >= 1, got 0"):
            HilbertModel(5, dim=0)
        with pytest.raises(ValidationError, match=r"l_p exponent must satisfy p >= 2, got 1.5"):
            LpModel(5, p=1.5, dim=0)
        with pytest.raises(ValidationError, match=r"dimension must be an integer >= 1, got 2.5"):
            LpModel(5, dim=2.5)

    def test_replications_guard(self):
        with pytest.raises(ValidationError):
            simulate(RademacherModel(1), seed=0, replications=0)

    def test_factory(self):
        for kind in MODEL_KINDS:
            model = make_model(kind, 4, 1.0)
            assert model.kind == kind
        with pytest.raises(ValidationError):
            make_model("nope", 4)

    def test_thread_count_env_not_an_integer(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "x")
        with pytest.raises(ValidationError):
            worker_count()

    def test_builtins_cover_all_kinds(self):
        kinds = [m.kind for m in builtin_models(3)]
        assert sorted(kinds) == sorted(MODEL_KINDS)


class TestDegenerateCases:
    def test_single_rademacher_step_is_unit(self):
        sim = simulate(RademacherModel(1, 1.0), seed=0, replications=512)
        assert np.all(sim.final_norms == 1.0)
        assert np.all(sim.increment_norms == 1.0)

    def test_vector_norms_equal_scale(self):
        scale = [0.5, 1.5, 2.0]
        for model in (HilbertModel(3, scale, dim=4), LpModel(3, scale, p=3.0, dim=4)):
            sim = simulate(model, seed=1, replications=256)
            assert np.allclose(sim.increment_norms, scale, rtol=1e-12)
            assert np.all(sim.final_norms <= sum(scale) * (1 + 1e-12))

    def test_two_point_support(self):
        p = 0.2
        model = TwoPointModel(2, 1.0, prob=p)
        sim = simulate(model, seed=2, replications=4096)
        mag = 1.0 / math.sqrt(2 * p)
        vals = np.unique(np.round(sim.increment_norms, 12))
        assert set(vals).issubset({0.0, round(mag, 12)})

    def test_dependent_first_step_full_scale(self):
        model = DependentModel(3, [2.0, 1.0, 1.0])
        sim = simulate(model, seed=3, replications=128)
        assert np.all(sim.increment_norms[:, 0] == 2.0)
        assert np.all(sim.increment_norms <= model.scale + 1e-12)


class TestEnvelopeContract:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_second_moments_within_envelope(self, kind):
        model = make_model(kind, 6, [0.5, 1.0, 1.5, 0.8, 1.2, 2.0])
        sim = simulate(model, seed=4, replications=40000)
        emp = (sim.increment_norms**2).mean(axis=0)
        b2 = model.envelope().b ** 2
        # unconditional second moment <= envelope (small MC slack)
        assert np.all(emp <= b2 * (1 + 0.05))

    def test_equality_models_are_tight(self):
        for model in (
            RademacherModel(3, [1.0, 2.0, 0.5]),
            HilbertModel(3, [1.0, 2.0, 0.5], dim=3),
            LpModel(3, [1.0, 2.0, 0.5], p=4.0, dim=2),
        ):
            sim = simulate(model, seed=5, replications=1000)
            emp = (sim.increment_norms**2).mean(axis=0)
            assert np.allclose(emp, model.envelope().b ** 2, rtol=1e-10)


class TestMartingaleSanity:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_mean_final_vector_near_zero(self, kind):
        model = make_model(kind, 50, 1.0)
        sim = simulate(model, seed=6, replications=20000, keep_final=True)
        finals = sim.final_vectors
        assert finals is not None
        mean = finals.mean(axis=0)
        se = finals.std(axis=0, ddof=1) / math.sqrt(finals.shape[0])
        # dependent walks can have tiny per-coordinate spread; guard se > 0
        assert np.all(np.abs(mean) <= 4.0 * np.maximum(se, 1e-12))

    def test_rademacher_clt_scale(self):
        n = 400
        sim = simulate(RademacherModel(n, 1.0), seed=7, replications=20000)
        second = (sim.final_norms**2).mean()
        # E S_n^2 = n exactly; allow 5 sigma of the chi-square fluctuation
        se = (sim.final_norms**2).std(ddof=1) / math.sqrt(20000)
        assert abs(second - n) <= 5 * se


class TestDeterminism:
    def test_bitwise_reproducible_across_threads(self):
        for model in (
            RademacherModel(7, 1.0),
            HilbertModel(4, 1.0, dim=3),
            UniformModel(7, 1.0),
            TwoPointModel(7, 1.0, prob=0.1),
            DependentModel(7, 1.0),
        ):
            a = simulate(model, seed=8, replications=20000, threads=1)
            b = simulate(model, seed=8, replications=20000, threads=4)
            assert np.array_equal(a.final_norms, b.final_norms)
            assert np.array_equal(a.increment_norms, b.increment_norms)

    def test_streams_are_independent(self):
        sim = simulate(UniformModel(1, 1.0), seed=9, replications=4096)
        # the increment-norm stream must not be the final-norm stream
        assert not np.array_equal(sim.final_norms, sim.increment_norms[:, 0])

    def test_seed_changes_output(self):
        a = simulate(RademacherModel(5, 1.0), seed=10, replications=1024)
        b = simulate(RademacherModel(5, 1.0), seed=11, replications=1024)
        assert not np.array_equal(a.final_norms, b.final_norms)

    @pytest.mark.parametrize(
        "seed, key",
        [(2**64 + 1, "8c2a8386a338b2b4eb6a5066c6e1c055"),
         (np.uint64(2**64 - 1), "573617275533849b830a89240ba2f8ca")],
        ids=["int", "uint64"],
    )
    def test_seed_above_float_precision_keeps_its_key(self, seed, key):
        # A seed is hashed by its exact digits, never rounded through a float
        # (2**64 + 1 and 2**64 are the same float).
        assert stream_key(seed, "norms", 3).tobytes().hex() == key

    def test_prefix_stability(self):
        # more replications extend, never alter, earlier ones
        a = simulate(RademacherModel(3, 1.0), seed=12, replications=5000)
        b = simulate(RademacherModel(3, 1.0), seed=12, replications=10000)
        assert np.array_equal(a.final_norms, b.final_norms[:5000])


class TestMomentStream:
    SCALE = [0.5, 1.0, 1.5, 2.0]

    @pytest.mark.parametrize("kind", [k for k in MODEL_KINDS if k != "dependent"])
    def test_exact_models_never_draw_moments(self, kind, monkeypatch):
        labels = []

        def recording(seed, label, block):
            labels.append(label)
            return block_generator(seed, label, block)

        monkeypatch.setattr(models, "block_generator", recording)
        model = make_model(kind, 4, self.SCALE)
        sim = simulate(model, seed=13, replications=20000)
        for t in (2.5, 3.0, 3.5, 4.0):
            assert check_from_simulation(model, sim, t, seed=13).profile == "exact"
        assert labels and "moments" not in labels

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("kind", ["rademacher", "hilbert", "lp"])
    def test_unit_norm_moment_stream_is_the_scale(self, kind, threads, monkeypatch):
        # ||X_i|| = b_i surely, so the moment stream copies the scale and
        # draws nothing from its generators.
        labels = []

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"the moment stream drew {name}")

        def no_draws(seed, label, block):
            labels.append(label)
            return NoDraws()

        model = make_model(kind, 4, self.SCALE)
        sim = simulate(model, seed=20, replications=20000, threads=threads)
        monkeypatch.setattr(models, "block_generator", no_draws)
        assert np.array_equal(sim.increment_norms, np.broadcast_to(model.scale, (20000, 4)))
        assert labels and set(labels) == {"moments"}

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_increment_norms_match_per_block_reference(self, kind, threads):
        model = make_model(kind, 4, self.SCALE)
        reps = 20000
        sim = simulate(model, seed=14, replications=reps, threads=threads)
        ref = np.concatenate([
            model._increment_tile(block_generator(14, "moments", blk), stop - start)
            for blk, start, stop in iter_blocks(reps)
        ])
        assert np.array_equal(sim.increment_norms, ref)

    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_final_norms_match_per_block_reference(self, kind, threads):
        model = make_model(kind, 4, self.SCALE)
        reps = 20000
        sim = simulate(model, seed=15, replications=reps, threads=threads)
        ref = np.concatenate([
            model._norm_tile(block_generator(15, "norms", blk), stop - start, False)[0]
            for blk, start, stop in iter_blocks(reps)
        ])
        assert np.array_equal(sim.final_norms, ref)

    @pytest.mark.parametrize("keep_final", [False, True])
    @pytest.mark.parametrize(
        "model, norm",
        [
            (HilbertModel(4, SCALE, dim=3),
             lambda v: np.sqrt(np.einsum("...k,...k->...", v, v))),
            (LpModel(4, SCALE, p=3.0, dim=8),
             lambda v: np.cbrt(np.einsum("...k,...k->...", np.abs(v), np.abs(v) * np.abs(v)))),
        ],
        ids=["hilbert", "lp"],
    )
    def test_sphere_block_matches_inline_reference(self, model, norm, keep_final):
        s, f = model._norm_tile(block_generator(17, "norms", 0), 500, keep_final)
        x = model._increment_tile(block_generator(17, "moments", 0), 500)
        g = block_generator(17, "norms", 0).standard_normal((500, 4, model.dim))
        nrm = norm(g)
        nrm[nrm == 0.0] = 1.0
        ref = np.einsum("ijk,ij->ik", g, model.scale / nrm)
        assert np.array_equal(s, norm(ref))
        assert np.array_equal(x, np.broadcast_to(model.scale, (500, 4)))
        if keep_final:
            assert np.array_equal(f, ref)
        else:
            assert f is None

    @pytest.mark.parametrize("n", [1, 5, 50])
    @pytest.mark.parametrize(
        "kind, params",
        [("hilbert", {"dim": d}) for d in (1, 3, 10)]
        + [("lp", {"p": p, "dim": d}) for p in (2.0, 2.5, 3.0, 4.0) for d in (2, 8)],
    )
    def test_sphere_block_agrees_with_divide_then_sum(self, kind, params, n):
        # The step sum once divided the whole tile by the step norms, scaled
        # it and summed over the steps; on the same draws the final norms
        # may differ from that by rounding only.
        model = make_model(kind, n, np.linspace(0.5, 2.0, n), **params)
        p = params.get("p", 2.0)

        def norm(v):
            if kind == "hilbert":
                return np.sqrt((v * v).sum(axis=-1))
            return (np.abs(v) ** p).sum(axis=-1) ** (1.0 / p)

        s = model._norm_tile(block_generator(21, "norms", 0), 1000, False)[0]
        g = block_generator(21, "norms", 0).standard_normal((1000, n, model.dim))
        nrm = norm(g)
        nrm[nrm == 0.0] = 1.0
        ref = norm((g / nrm[..., None] * model.scale[None, :, None]).sum(axis=1))
        assert np.max(np.abs(s - ref)) <= 1e-13 * model.scale.sum()


# Shapes whose tile does not divide the 8192-row block, so every block ends
# in a short tile and the 20000-replication run ends in a partial block.
# dependent n = 100 is held at its 1024-row floor, which divides a whole
# block but not the partial one.
TILE_CASES = {
    "uniform": (300, {}),
    "lp": (50, {"p": 3.0, "dim": 8}),
    "hilbert": (50, {}),
    "dependent": (100, {}),
    "two_point": (70, {}),
    "rademacher": (70, {}),
}


class TestRowTiles:
    REPS = 20000
    SEED = 18

    @pytest.fixture(scope="class")
    def whole_block(self):
        """Per kind: the model and its streams from whole-block calls."""
        cache = {}

        def get(kind):
            if kind not in cache:
                n, params = TILE_CASES[kind]
                model = make_model(kind, n, np.linspace(0.5, 2.0, n), **params)
                norms = [
                    model._norm_tile(block_generator(self.SEED, "norms", blk), stop - start, True)
                    for blk, start, stop in iter_blocks(self.REPS)
                ]
                moments = [
                    model._increment_tile(block_generator(self.SEED, "moments", blk), stop - start)
                    for blk, start, stop in iter_blocks(self.REPS)
                ]
                cache[kind] = (
                    model,
                    np.concatenate([s for s, _ in norms]),
                    np.concatenate([f for _, f in norms]),
                    np.concatenate(moments),
                )
            return cache[kind]

        return get

    @pytest.mark.parametrize("keep_final", [False, True])
    @pytest.mark.parametrize("threads", [1, 4])
    @pytest.mark.parametrize("kind", list(TILE_CASES))
    def test_tiles_match_whole_blocks(self, whole_block, kind, threads, keep_final):
        model, final_norms, final_vectors, increment_norms = whole_block(kind)
        rows = max(model._min_tile_rows, models._TILE_ELEMS // model._width)
        assert rows < BLOCK_SIZE and (self.REPS % BLOCK_SIZE) % rows != 0
        sim = simulate(model, self.SEED, self.REPS, threads=threads, keep_final=keep_final)
        assert np.array_equal(sim.final_norms, final_norms)
        if keep_final:
            assert np.array_equal(sim.final_vectors, final_vectors)
        else:
            assert sim.final_vectors is None
        assert np.array_equal(sim.increment_norms, increment_norms)

    @pytest.mark.parametrize("keep_final", [False, True])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_outputs_do_not_depend_on_tile_size(self, kind, keep_final, monkeypatch):
        # Covers the per-row order of the sphere models' einsum sums: tiles
        # of one row, of an odd row count and of more than a whole block.
        n = 5
        model = make_model(kind, n, np.linspace(0.5, 2.0, n))
        reps = BLOCK_SIZE + 301

        def outputs():
            sim = simulate(model, self.SEED, reps, threads=1, keep_final=keep_final)
            return sim.final_norms, sim.final_vectors, sim.increment_norms

        default = outputs()
        odd = max(model._min_tile_rows, 37) | 1
        for elems, rows in [
            (1, model._min_tile_rows),
            (odd * model._width, odd),
            (2 * BLOCK_SIZE * model._width, 2 * BLOCK_SIZE),
        ]:
            monkeypatch.setattr(models, "_TILE_ELEMS", elems)
            assert max(model._min_tile_rows, elems // model._width) == rows
            for got, want in zip(outputs(), default):
                if want is None:
                    assert got is None
                else:
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("draw, shape", [("random", (7,)), ("standard_normal", (5, 3))])
    def test_generator_continues_across_row_tiles(self, draw, shape):
        whole = getattr(block_generator(19, "norms", 0), draw)((1001, *shape))
        gen = block_generator(19, "norms", 0)
        tiles = [getattr(gen, draw)((b - a, *shape)) for a, b in [(0, 1), (1, 38), (38, 500), (500, 1001)]]
        assert np.array_equal(np.concatenate(tiles), whole)

    @pytest.mark.parametrize(
        "model", [UniformModel(500, 1.0), LpModel(50, 1.0, p=3.0, dim=8)], ids=["uniform", "lp"]
    )
    def test_working_memory_is_bounded_by_the_tile(self, model):
        # Whole-block temporaries peaked at 63.5 (uniform) and 79.3 MB (lp).
        tracemalloc.start()
        try:
            simulate(model, 3, 16384, threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
