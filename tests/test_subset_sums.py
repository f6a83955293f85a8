import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenthal import (
    DomainError,
    MinGroupedSumSpec,
    MomentProfile,
    ValidationError,
    VarianceEnvelope,
    brute_force_min_grouped_sum,
    elementary_symmetric_suffix,
    min_grouped_sum,
    required_exponents,
    theorem_bound,
)
from rosenthal.core import half_layers, pow00
from rosenthal.subset_sums import _SPLIT_MIN_N, _layer_sums, _split_sum


def esp_by_enumeration(weights, r):
    if r == 0:
        return 1.0
    return sum(np.prod(c) for c in combinations(weights, r))


class TestElementarySymmetricSuffix:
    def test_full_suffix_order_two(self):
        table = elementary_symmetric_suffix([1, 2, 3], 2)
        # e_2(1,2,3) = 1*2 + 1*3 + 2*3 = 11
        assert table[0, 2] == 11.0

    def test_order_zero_is_one(self):
        table = elementary_symmetric_suffix([1, 2, 3], 0)
        assert np.all(table[:, 0] == 1.0)

    def test_too_few_elements(self):
        table = elementary_symmetric_suffix([5.0], 2)
        assert table[0, 2] == 0.0

    def test_against_enumeration(self):
        rng = np.random.default_rng(0)
        w = rng.uniform(0, 2, size=9)
        table = elementary_symmetric_suffix(w, 5)
        for k in range(10):
            for r in range(6):
                assert table[k, r] == pytest.approx(
                    esp_by_enumeration(w[k:], r), rel=1e-12, abs=1e-12
                )

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            elementary_symmetric_suffix([1.0], -1)


class TestMinGroupedSum:
    def test_empty_subset_uses_last_prefix(self):
        spec = MinGroupedSumSpec((1, 1), (0, 5, 7), 0)
        assert min_grouped_sum(spec) == 7.0
        assert brute_force_min_grouped_sum(spec) == 7.0

    def test_singletons(self):
        spec = MinGroupedSumSpec((1, 2, 3), (0, 1, 2, 3), 1)
        assert min_grouped_sum(spec) == 8.0
        assert brute_force_min_grouped_sum(spec) == 8.0

    def test_pairs(self):
        spec = MinGroupedSumSpec((1, 2, 3), (0, 1, 2, 3), 2)
        assert min_grouped_sum(spec) == 6.0
        assert brute_force_min_grouped_sum(spec) == 6.0

    def test_oversized_cardinality(self):
        spec = MinGroupedSumSpec((1.0, 2.0), (1, 1, 1), 5)
        assert min_grouped_sum(spec) == 0.0
        assert brute_force_min_grouped_sum(spec) == 0.0

    def test_zero_weights(self):
        spec = MinGroupedSumSpec((0.0, 0.0, 0.0), (1, 1, 1, 1), 2)
        assert brute_force_min_grouped_sum(spec) == 0.0
        assert min_grouped_sum(spec) == 0.0

    def test_full_cardinality_single_subset(self):
        w = (0.5, 2.0, 1.5)
        spec = MinGroupedSumSpec(w, (7.0, 1, 1, 1), 3)
        expect = 7.0 * 0.5 * 2.0 * 1.5
        assert min_grouped_sum(spec) == pytest.approx(expect, rel=1e-15)
        assert brute_force_min_grouped_sum(spec) == pytest.approx(expect, rel=1e-15)

    def test_shared_table_matches_fresh(self):
        rng = np.random.default_rng(1)
        w = tuple(rng.uniform(0, 2, size=8))
        g = tuple(rng.uniform(0, 3, size=9))
        table = elementary_symmetric_suffix(w, 7)
        for j in range(9):
            spec = MinGroupedSumSpec(w, g, j)
            assert min_grouped_sum(spec, esp_table=table) == min_grouped_sum(spec)

    def test_brute_force_guard(self):
        spec = MinGroupedSumSpec((1.0,) * 21, (1.0,) * 22, 2)
        with pytest.raises(DomainError):
            brute_force_min_grouped_sum(spec)

    def test_fields_are_read_only_copies(self):
        w, g = np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 2.0, 3.0])
        spec = MinGroupedSumSpec(w, g, 2)
        from_ints = MinGroupedSumSpec((1, 2), (0, 1, 2), 1)
        for field in (spec.weights, spec.prefix_values, from_ints.weights):
            assert type(field) is np.ndarray and field.dtype == np.float64
            assert not field.flags.writeable
        w[:], g[:] = 9.0, 9.0
        assert spec.weights.tolist() == [1.0, 2.0, 3.0]
        assert spec.prefix_values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert min_grouped_sum(spec) == brute_force_min_grouped_sum(spec) == 6.0
        assert spec == spec and spec != MinGroupedSumSpec(w, g, 2)  # identity

    def test_tuples_arrays_and_oracle_agree(self):
        rng = np.random.default_rng(15)
        for n in range(13):
            w, g = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n + 1)
            for j in range(n + 1):
                from_arrays = MinGroupedSumSpec(w, g, j)
                value = min_grouped_sum(from_arrays)
                assert min_grouped_sum(MinGroupedSumSpec(tuple(w), tuple(g), j)) == value
                oracle = brute_force_min_grouped_sum(from_arrays)
                assert type(oracle) is float
                assert value == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            MinGroupedSumSpec((1.0, -1.0), (1, 1, 1), 0)
        with pytest.raises(ValidationError):
            MinGroupedSumSpec((1.0,), (1.0,), 0)  # needs n+1 prefix values
        with pytest.raises(ValidationError):
            MinGroupedSumSpec((1.0,), (1.0, 1.0), -1)


@st.composite
def grouped_sum_specs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    finite = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
    w = tuple(draw(st.lists(finite, min_size=n, max_size=n)))
    g = tuple(draw(st.lists(finite, min_size=n + 1, max_size=n + 1)))
    j = draw(st.integers(min_value=0, max_value=n))
    return MinGroupedSumSpec(w, g, j)


@given(grouped_sum_specs())
@settings(max_examples=150, deadline=None)
def test_matches_brute_force(spec):
    fast = min_grouped_sum(spec)
    slow = brute_force_min_grouped_sum(spec)
    assert abs(fast - slow) <= 1e-10 * (1.0 + abs(slow))


def test_monotone_in_inputs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        w = rng.uniform(0, 2, size=n)
        g = rng.uniform(0, 2, size=n + 1)
        j = int(rng.integers(0, n + 1))
        base = min_grouped_sum(MinGroupedSumSpec(tuple(w), tuple(g), j))
        i = int(rng.integers(0, n))
        w2 = w.copy()
        w2[i] += rng.uniform(0, 1)
        assert min_grouped_sum(MinGroupedSumSpec(tuple(w2), tuple(g), j)) >= base - 1e-12
        k = int(rng.integers(0, n + 1))
        g2 = g.copy()
        g2[k] += rng.uniform(0, 1)
        assert min_grouped_sum(MinGroupedSumSpec(tuple(w), tuple(g2), j)) >= base - 1e-12


def test_cumsum_table_matches_row_recursion():
    # Reference: the row recursion e_r(w_k..) = e_r(w_{k+1}..) + w_k e_{r-1}(w_{k+1}..).
    rng = np.random.default_rng(3)
    n, order = 2000, 6
    w = 10.0 ** rng.uniform(-3.0, 3.0, size=n)
    ref = np.zeros((n + 1, order + 1))
    ref[:, 0] = 1.0
    for k in range(n - 1, -1, -1):
        ref[k, 1:] = ref[k + 1, 1:] + w[k] * ref[k + 1, :-1]
    table = elementary_symmetric_suffix(w, order)
    assert table.shape == (n + 1, order + 1)
    np.testing.assert_allclose(table, ref, rtol=1e-12, atol=0.0)


class TestOverflow:
    def test_overflowing_sum_is_inf(self):
        spec = MinGroupedSumSpec((1e308, 1e308), (1.0, 1.0, 1.0), 1)
        assert min_grouped_sum(spec) == math.inf

    def test_overflowed_table_entry_times_zero_is_inf(self):
        # e_2(w[1:]) overflows and meets the prefix value g(0) = 0.
        spec = MinGroupedSumSpec((1e200,) * 3, (0.0, 1.0, 1.0, 1.0), 3)
        assert min_grouped_sum(spec) == math.inf

    def test_long_overflowing_sum_is_inf(self):
        # n >= the split threshold: finite terms whose sum overflows.
        spec = MinGroupedSumSpec((1e306,) * _SPLIT_MIN_N, (1.0,) * (_SPLIT_MIN_N + 1), 1)
        assert min_grouped_sum(spec) == math.inf

    def test_long_inf_and_nan_terms_are_inf(self):
        # e_2(w[k+1:]) overflows: the terms are inf, and NaN where g(k) = 0.
        n = _SPLIT_MIN_N + 5
        spec = MinGroupedSumSpec((1e200,) * n, (0.0,) + (1.0,) * n, 3)
        assert min_grouped_sum(spec) == math.inf
        spec = MinGroupedSumSpec((1e200,) * n, (0.0,) * (n + 1), 3)
        assert min_grouped_sum(spec) == math.inf


def fsum_layer(g, w, table, j):
    """Reference layer sum: the terms as a list, reduced by ``math.fsum``."""
    n = w.shape[0]
    if j == 0:
        return float(g[n])
    return math.fsum((g[:n] * w * table[1:, j - 1]).tolist())


def two_point_case(n, t, seed):
    """Exact moments of steps that are 0 or +-b_i / sqrt(2 p_i)."""
    rng = np.random.default_rng(seed)
    b = 10.0 ** rng.uniform(-0.5, 0.5, n)
    p = rng.uniform(0.02, 0.5, n)
    moments = {
        s: b * b if s == 2.0 else 2.0 * p * (b / np.sqrt(2.0 * p)) ** s
        for s in required_exponents(t)
    }
    return MomentProfile(n, t, moments), VarianceEnvelope(b)


class TestFoldParity:
    """Long layers take the vectorised split sum; each min-grouped layer is
    fsum's, by repr, and each layer of the swapped form agrees with it to
    rounding.  ``theorem_bound`` runs the kernel on (b_i / B_n)^2 and
    combines the layers in logs, so its value agrees with the float sum to
    1e-12."""

    @pytest.mark.parametrize("n", [2047, 2048, 20_000, 100_000])
    @pytest.mark.parametrize("t", [3.0, 6.5, 11.0])
    def test_matches_fsum_per_layer(self, n, t):
        profile, envelope = two_point_case(n, t, seed=n)
        m = half_layers(t)
        w = envelope.b * envelope.b
        table = elementary_symmetric_suffix(w, max(m - 1, 0))
        prefix = [profile.prefix_sums(t - 2.0 * j) for j in range(m)]
        prefix.append(pow00(profile.prefix_sums(2.0), t / 2.0 - m))
        swapped = _layer_sums(
            profile.total(t),
            [profile.moment_array(t - 2.0 * j) for j in range(1, m)],
            profile.moment_array(2.0),
            envelope.b,
            1.0,
            t / 2.0 - m,
        )

        report = theorem_bound(profile, envelope, 1.0)
        constants = report.constants["c"] + [report.constants["c_tilde"]]
        value = 0.0
        for j, (c, g) in enumerate(zip(constants, prefix)):
            layer = fsum_layer(g, w, table, j)
            spec = MinGroupedSumSpec(tuple(w), tuple(g), j)
            assert repr(min_grouped_sum(spec, esp_table=table)) == repr(layer)
            if j:
                # These sums have no ties, so the split sum certifies each one.
                assert _split_sum(g[:n] * w * table[1:, j - 1]) == layer
            assert swapped[j] == pytest.approx(layer, rel=1e-13, abs=0.0)
            value += c * layer if layer else 0.0
        assert report.value == pytest.approx(value, rel=1e-12, abs=0.0)
        # The top layer keeps the min-grouped form: the same terms, by repr.
        assert repr(swapped[m]) == repr(fsum_layer(prefix[m], w, table, m))


@pytest.mark.parametrize("t", [3.0, 6.5, 11.0, 30.0])
def test_theorem_bound_workspace_is_flat_in_t(t):
    # One workspace per call, sized to m: the suffix column is streamed,
    # so the traced peak stays below 8 n float64s at every t.
    n = 100_000
    profile, envelope = two_point_case(n, t, seed=3)
    theorem_bound(profile, envelope, 1.0)
    tracemalloc.start()
    try:
        theorem_bound(profile, envelope, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * 8
    if t > 6.0:  # m >= 3: one column, one term array, the split sum's scratch
        assert peak <= 6 * n * 8


def prefix_specs(arrays, a2, w, expo):
    """The layers as min-grouped sums over prefix values, the form before
    the sums were swapped: A_k(t-2j) for j < m, then (A_k(2))^expo."""
    def prefix(a):
        return np.concatenate([[0.0], np.cumsum(a)])

    specs = [MinGroupedSumSpec(w, prefix(a), j) for j, a in enumerate(arrays)]
    return specs + [MinGroupedSumSpec(w, pow00(prefix(a2), expo), len(arrays))]


def swapped_layers(arrays, a2, b, expo):
    """`_layer_sums` on the arrays a(t-2j), j < m, and the weights b_i^2,
    with T_0 = fsum of a(t)."""
    return _layer_sums(math.fsum(arrays[0]), arrays[1:], a2, b, 1.0, expo)


@st.composite
def layer_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    t = draw(st.one_of(st.floats(2.0, 30.0), st.integers(1, 15).map(lambda k: 2.0 * k)))
    m = half_layers(t)
    entry = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))
    arrays = st.lists(entry, min_size=n, max_size=n).map(np.array)
    return [draw(arrays) for _ in range(m)], draw(arrays), draw(arrays), t / 2.0 - m


@given(layer_inputs())
@settings(max_examples=200, deadline=None)
def test_layer_sums_match_enumeration(inputs):
    arrays, a2, b, expo = inputs
    specs = prefix_specs(arrays, a2, b * b, expo)
    layers = swapped_layers(arrays, a2, b, expo)
    assert len(layers) == len(specs) == len(arrays) + 1
    for layer, spec in zip(layers, specs):
        oracle = brute_force_min_grouped_sum(spec)
        assert abs(layer - oracle) <= 1e-12 * oracle


def power_case(n, t, x, b):
    """Steps with a_i(s) = x_i^s for s != 2 and a_i(2) = b_i^2."""
    moments = {s: [b_i * b_i if s == 2.0 else x_i**s for x_i, b_i in zip(x, b)]
               for s in required_exponents(t)}
    return MomentProfile(n, t, moments), VarianceEnvelope(b)


@pytest.mark.parametrize(
    "profile, envelope, D, value",
    [
        (*power_case(0, 5.0, [], []), 1.5, 0.0),  # no steps
        (*power_case(1, 5.0, [1.3], [1.1]), 1.5, 19.492882499999993),  # j > n
        (*power_case(1, 6.0, [1.3], [1.1]), 1.5, 48.268090000000036),  # j > n, even t
        # m = 1 at t = 3 and t = 2 (0^0 := 1), by hand: c_0 A_n(t) plus
        # c~_1 sum_k A_{k-1}(2)^(t/2-1) b_k^2.
        (*power_case(3, 3.0, [0.5, 1.0, 2.0], [0.7, 1.0, 1.5]), 1.5, 31.629690691007905),
        (*power_case(3, 2.0, [0.5, 1.0, 2.0], [0.7, 1.0, 1.5]), 1.5, 8.415),
        (*power_case(4, 6.0, [0.5, 1.0, 2.0, 0.3], [0.7, 1.0, 1.5, 0.2]), 1.5, 9190.251665000003),
        (*power_case(4, 8.0, [0.5, 1.0, 2.0, 0.3], [0.7, 1.0, 1.5, 0.2]), 1.5, 435795.6512244344),
        # B_n beyond the float range: the unit is max b_i.
        (MomentProfile(2, 3.0, {3.0: [0.0, 1.0], 2.0: [0.0, 1.0]}),
         VarianceEnvelope([1.5e308, 1.5e308]), 1.0, 1.0),
        (MomentProfile(3, 6.5, {s: [0.0, 1e-300, 1.0] for s in required_exponents(6.5)}),
         VarianceEnvelope([1.5e308, 1.5e308, 1.0]), 1.0, 11.31370849898476),
    ],
)
def test_layered_edge_values(profile, envelope, D, value):
    # The values the min-grouped form over prefix sums gave on these inputs.
    got = theorem_bound(profile, envelope, D).value
    assert got == pytest.approx(value, rel=1e-14, abs=0.0)


class TestLayerSumsEdges:
    def test_no_steps(self):
        empty = np.zeros(0)
        assert _layer_sums(0.0, [empty, empty], empty, empty, 1.0, 0.5) == [0.0] * 4

    def test_one_step(self):
        a, b = np.array([2.0]), np.array([6.0])
        # Layers past n = 1 are 0; the top layer at m = 1 is A_0(2)^expo * w_1,
        # with w_1 = (b_1 / unit)^2 = 9.
        assert _layer_sums(2.0, [a, a], a, b, 2.0, 0.5) == [2.0, 0.0, 0.0, 0.0]
        assert _layer_sums(2.0, [], a, b, 2.0, 0.5) == [2.0, 0.0]
        assert _layer_sums(2.0, [], a, b, 2.0, 0.0) == [2.0, 9.0]

    @pytest.mark.parametrize("t", [2.0, 3.0, 6.0, 6.5, 12.0, 13.0])
    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_against_min_grouped_sum(self, n, t):
        rng = np.random.default_rng(n)
        m = half_layers(t)
        arrays = [rng.uniform(0.0, 2.0, n) for _ in range(m)]
        a2, b = rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
        layers = swapped_layers(arrays, a2, b, t / 2.0 - m)
        specs = prefix_specs(arrays, a2, b * b, t / 2.0 - m)
        for j, (layer, spec) in enumerate(zip(layers, specs)):
            if j > n:
                assert layer == 0.0
            elif j == m:  # the same min-grouped terms, so the same sum
                assert repr(layer) == repr(min_grouped_sum(spec))
            else:
                assert layer == pytest.approx(min_grouped_sum(spec), rel=1e-13, abs=0.0)


# Nonnegative terms over the whole float range: zeros, subnormals, normals.
split_terms = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=5e-324, max_value=2.0**-1022, allow_subnormal=True),
        st.floats(min_value=0.0, max_value=1e300, allow_nan=False),
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, 990)),
    ),
    max_size=80,
)


@given(split_terms)
@settings(max_examples=400, deadline=None)
def test_split_sum_is_fsum_or_none(xs):
    got = _split_sum(np.array(xs, dtype=float))
    if got is not None:
        assert repr(got) == repr(math.fsum(xs))


@given(
    st.floats(min_value=2.0**-800, max_value=2.0**900),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=40),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_split_sum_defers_on_ties(r, split, zeros, random):
    # r plus half the gap to its upper neighbour, in 2^split equal pieces:
    # the exact sum is a half-ulp tie, which only fsum may round.
    half = (math.nextafter(r, math.inf) - r) / 2
    xs = [r] + [half / 2**split] * 2**split + [0.0] * zeros
    random.shuffle(xs)
    assert math.fsum(xs) in (r, math.nextafter(r, math.inf))
    x = np.array(xs)
    before = x.tobytes()
    assert _split_sum(x) is None
    assert x.tobytes() == before  # the terms are only read


def test_split_sum_certifies_long_arrays():
    rng = np.random.default_rng(4)
    for n in (2, 3, 1000, 2048, 150_001):
        for scale in (1e-250, 1.0, 1e250):
            x = rng.exponential(scale, n)
            x[rng.random(n) < 0.2] = 0.0
            got = _split_sum(x)
            assert got is not None
            assert repr(got) == repr(math.fsum(x.tolist()))


def test_split_sum_defers_out_of_range():
    assert _split_sum(np.array([])) is None
    assert _split_sum(np.array([1.0])) is None
    assert _split_sum(np.full(2048, 1e-280)) is None  # total below 2^-900
    assert _split_sum(np.full(2048, 1e300)) is None  # total above 2^1000
    assert _split_sum(np.array([1.0, math.inf])) is None
    assert _split_sum(np.array([1.0, math.nan, 2.0])) is None


def test_split_sum_second_round(monkeypatch):
    # Layer j = 3 of a t = 30 profile, whose sum is only about 10 times its
    # largest term: round 1 leaves too wide an error bound, and round 2,
    # which allocates its own buffer, certifies fsum's value; the terms are
    # only read.
    n, j = 100_000, 3
    profile, envelope = two_point_case(n, 30.0, seed=3)
    w = (envelope.b / envelope.total()) ** 2
    terms = profile.moment_array(30.0 - 2 * j) * elementary_symmetric_suffix(w, j)[1:, j]
    assert terms.sum() < 16.0 * terms.max()
    before = terms.tobytes()
    empty, work, buffers = np.empty, np.empty(n), []
    monkeypatch.setattr(np, "empty", lambda *a, **k: buffers.append(a) or empty(*a, **k))
    got = _split_sum(terms, work)
    monkeypatch.undo()
    assert buffers == [(n,)]
    assert repr(got) == repr(math.fsum(terms.tolist()))
    assert terms.tobytes() == before
