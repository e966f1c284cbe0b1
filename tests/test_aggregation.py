import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ref_f_pi, ref_owa, ref_rank_weights, ref_wowa, ref_wstar, sort_desc_stable
from wowaopt import (
    DistortionFunction,
    ProbabilityVector,
    RankWeights,
    WeightVector,
    f_pi,
    generate_weights,
    owa,
    rank_weights,
    wowa,
    wstar_eval,
)
from wowaopt.aggregation import wowa_batch

TOL = 1e-9

V4 = [0.5, 0.3, 0.2, 0.0]
P4 = [0.5, 0.2, 0.2, 0.1]


def random_weights(rng, k, nonincreasing=True):
    raw = np.sort(rng.random(k))[::-1] if nonincreasing else rng.random(k)
    raw = raw + 1e-3
    return WeightVector(raw / raw.sum())


def random_probs(rng, k):
    raw = rng.random(k) + 1e-3
    return ProbabilityVector(raw / raw.sum())


class TestVectorTypes:
    def test_weight_vector_normalizes_and_flags(self):
        v = WeightVector(V4)
        assert math.isclose(sum(v.values), 1.0, abs_tol=1e-15)
        assert v.is_nonincreasing

    def test_weight_vector_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.3])

    def test_weight_vector_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightVector([1.5, -0.5])

    def test_non_monotone_flagged(self):
        assert not WeightVector([0.2, 0.5, 0.3]).is_nonincreasing

    def test_probability_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, 0.5, 0.0])

    def test_probability_vector_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ProbabilityVector([0.5, 0.4])


class TestDistortion:
    def test_breakpoints_are_exact_cumulative_sums(self):
        d = DistortionFunction.from_weights(WeightVector(V4))
        assert d.breakpoints == (0.0, 0.5, 0.8, 1.0, 1.0)
        for j in range(5):
            assert wstar_eval(d, j / 4) == d.breakpoints[j]

    def test_worked_values(self):
        d = DistortionFunction.from_weights(WeightVector(V4))
        assert wstar_eval(d, 0.5) == pytest.approx(0.8, abs=TOL)
        assert wstar_eval(d, 0.0) == 0.0
        # between breakpoints 0.25 -> 0.5 and 0.5 -> 0.8
        assert wstar_eval(d, 0.3) == pytest.approx(0.56, abs=TOL)

    def test_domain_error(self):
        d = DistortionFunction.from_weights(WeightVector(V4))
        with pytest.raises(ValueError):
            wstar_eval(d, -0.01)
        with pytest.raises(ValueError):
            wstar_eval(d, 1.01)

    def test_concavity_tracks_monotonicity(self):
        assert DistortionFunction.from_weights(WeightVector(V4)).is_concave
        assert not DistortionFunction.from_weights(WeightVector([0.1, 0.6, 0.3])).is_concave

    def test_concavity_and_monotonicity_share_one_exact_rule(self):
        v = WeightVector([0.4 - 1e-10, 0.3, 0.3 + 1e-10])
        assert not v.is_nonincreasing
        assert not v.distortion.is_concave
        rng = np.random.RandomState(13)
        vectors = [generate_weights(alpha, k) for k in range(2, 60)
                   for alpha in np.geomspace(1e-6, 0.999, 40)]
        vectors += [WeightVector.uniform(k) for k in range(2, 60)]
        vectors += [random_weights(rng, rng.randint(2, 60), nonincreasing=bool(i % 2))
                    for i in range(500)]
        for v in vectors:
            assert v.distortion.is_concave == v.is_nonincreasing, v.values

    def test_matches_reference_on_random_points(self):
        rng = np.random.RandomState(0)
        for _ in range(50):
            k = rng.randint(1, 9)
            v = random_weights(rng, k, nonincreasing=False)
            d = DistortionFunction.from_weights(v)
            for t in rng.random(10):
                assert d(t) == pytest.approx(ref_wstar(v.values, t), abs=TOL)


class TestRankWeights:
    def test_worked_example_descending_order(self):
        sigma = sort_desc_stable([10, 1, 1, 2])
        rw = rank_weights(V4, P4, sigma)
        assert rw.omegas == pytest.approx((0.8, 0.08, 0.12, 0.0), abs=TOL)
        assert rw.permutation == tuple(sigma)

    def test_worked_example_second_path(self):
        sigma = sort_desc_stable([5, 5, 7, 8])
        assert sigma == [3, 2, 0, 1]
        rw = rank_weights(V4, P4, sigma)
        assert rw.omegas == pytest.approx((0.2, 0.36, 0.44, 0.0), abs=TOL)

    def test_uniform_probabilities_reduce_to_v(self):
        rng = np.random.RandomState(1)
        for k in (1, 2, 5, 9):
            v = random_weights(rng, k, nonincreasing=False)
            p = ProbabilityVector.uniform(k)
            sigma = rng.permutation(k)
            rw = rank_weights(v, p, sigma)
            assert rw.omegas == pytest.approx(v.values, abs=TOL)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            rank_weights(V4, P4, [0, 1, 2, 2])

    @pytest.mark.parametrize("sigma, omegas", [
        ((0, 3, 1, 2), ("0x1.999999999999ap-1", "0x1.47ae147ae1478p-4",
                        "0x1.eb851eb851eb8p-4", "0x0.0p+0")),
        ((3, 2, 0, 1), ("0x1.999999999999ap-3", "0x1.70a3d70a3d70bp-2",
                        "0x1.c28f5c28f5c28p-2", "0x0.0p+0")),
        ((2, 0, 1, 3), ("0x1.999999999999ap-2", "0x1.1eb851eb851ebp-1",
                        "0x1.47ae147ae1480p-5", "0x0.0p+0")),
        ((0, 1, 2, 3), ("0x1.999999999999ap-1", "0x1.47ae147ae1478p-3",
                        "0x1.47ae147ae1480p-5", "0x0.0p+0")),
    ])
    def test_worked_examples_bit_for_bit(self, sigma, omegas):
        # recorded from the separate rank-weight code the shared step replaced
        assert tuple(x.hex() for x in rank_weights(V4, P4, sigma).omegas) == omegas

    def test_omegas_in_unit_range_and_sum_to_one(self):
        rng = np.random.RandomState(2)
        for _ in range(200):
            k = rng.randint(1, 12)
            v = random_weights(rng, k, nonincreasing=bool(rng.randint(2)))
            p = random_probs(rng, k)
            rw = rank_weights(v, p, rng.permutation(k))
            om = np.array(rw.omegas)
            assert np.all(om >= -TOL) and np.all(om <= 1.0 + TOL)
            assert abs(om.sum() - 1.0) <= TOL


class TestWowa:
    def test_worked_examples(self):
        assert wowa([10, 1, 1, 2], V4, P4) == pytest.approx(8.28, abs=TOL)
        assert wowa([5, 5, 7, 8], V4, P4) == pytest.approx(6.32, abs=TOL)

    def test_uniform_v_is_weighted_mean(self):
        assert wowa([10, 1, 1, 2], [0.25] * 4, P4) == pytest.approx(5.6, abs=TOL)

    def test_top_weight_is_weighted_maximum(self):
        assert wowa([10, 1, 1, 2], [1, 0, 0, 0], [0.25] * 4) == pytest.approx(10.0, abs=TOL)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            wowa([1, 2, 3], V4, P4)

    def test_k1_degenerate(self):
        assert wowa([7.5], [1.0], [1.0]) == pytest.approx(7.5, abs=TOL)

    def test_matches_reference_on_random_inputs(self):
        rng = np.random.RandomState(3)
        for _ in range(300):
            k = rng.randint(1, 12)
            v = random_weights(rng, k, nonincreasing=bool(rng.randint(2)))
            p = random_probs(rng, k)
            a = rng.randint(0, 101, size=k).astype(float)
            assert wowa(a, v, p) == pytest.approx(ref_wowa(a.tolist(), v.values, p.values), abs=TOL)

    def test_monotone_in_costs(self):
        rng = np.random.RandomState(4)
        for _ in range(200):
            k = rng.randint(1, 10)
            v = random_weights(rng, k, nonincreasing=bool(rng.randint(2)))
            p = random_probs(rng, k)
            a = rng.random(k) * 100
            b = a + rng.random(k) * 10
            assert wowa(b, v, p) >= wowa(a, v, p) - TOL

    def test_bounded_by_min_and_max(self):
        rng = np.random.RandomState(5)
        for _ in range(200):
            k = rng.randint(1, 10)
            v = random_weights(rng, k, nonincreasing=bool(rng.randint(2)))
            p = random_probs(rng, k)
            a = rng.random(k) * 100
            val = wowa(a, v, p)
            assert a.min() - TOL <= val <= a.max() + TOL

    def test_tie_order_independence(self):
        rng = np.random.RandomState(6)
        for _ in range(100):
            k = rng.randint(2, 10)
            v = random_weights(rng, k)
            p = random_probs(rng, k)
            a = rng.randint(0, 4, size=k).astype(float)  # many ties
            perm = rng.permutation(k)
            assert wowa(a[perm], v, ProbabilityVector(p.as_array()[perm])) == pytest.approx(
                wowa(a, v, p), abs=TOL
            )


class TestReductions:
    def test_uniform_p_reduces_to_owa(self):
        rng = np.random.RandomState(7)
        for _ in range(200):
            k = rng.randint(1, 12)
            v = random_weights(rng, k, nonincreasing=bool(rng.randint(2)))
            a = rng.random(k) * 50
            assert wowa(a, v, ProbabilityVector.uniform(k)) == pytest.approx(
                owa(a, v), abs=TOL
            )

    def test_uniform_v_reduces_to_expectation(self):
        rng = np.random.RandomState(8)
        for _ in range(200):
            k = rng.randint(1, 12)
            p = random_probs(rng, k)
            a = rng.random(k) * 50
            assert wowa(a, WeightVector.uniform(k), p) == pytest.approx(
                float(np.dot(p.as_array(), a)), abs=TOL
            )

    def test_expectation_below_wowa_for_nonincreasing_v(self):
        rng = np.random.RandomState(9)
        for _ in range(200):
            k = rng.randint(1, 12)
            v = random_weights(rng, k)
            p = random_probs(rng, k)
            a = rng.random(k) * 50
            assert float(np.dot(p.as_array(), a)) <= wowa(a, v, p) + TOL


class TestOwa:
    def test_extremes_and_average(self):
        assert owa([3, 7, 5], [1, 0, 0]) == pytest.approx(7.0, abs=TOL)
        assert owa([3, 7, 5], [0, 0, 1]) == pytest.approx(3.0, abs=TOL)
        assert owa([3, 7, 5], [1 / 3] * 3) == pytest.approx(5.0, abs=TOL)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            owa([1, 2], [1, 0, 0])

    def test_matches_reference(self):
        rng = np.random.RandomState(10)
        for _ in range(100):
            k = rng.randint(1, 10)
            w = random_weights(rng, k, nonincreasing=False)
            a = rng.random(k) * 20
            assert owa(a, w) == pytest.approx(ref_owa(a.tolist(), w.values), abs=TOL)


class TestFPi:
    def test_sorting_permutation_recovers_wowa(self):
        a = [10, 1, 1, 2]
        assert f_pi(a, V4, P4, sort_desc_stable(a)) == pytest.approx(8.28, abs=TOL)

    def test_constant_vector_any_permutation(self):
        rng = np.random.RandomState(11)
        for _ in range(50):
            k = rng.randint(1, 10)
            v = random_weights(rng, k)
            p = random_probs(rng, k)
            c = float(rng.random() * 9)
            assert f_pi([c] * k, v, p, rng.permutation(k)) == pytest.approx(c, abs=TOL)

    def test_identity_permutation_worked_value(self):
        # cumulative p 0.5, 0.7, 0.9, 1.0 against the piecewise-linear
        # distortion gives omegas (0.8, 0.16, 0.04, 0) and the value 8.2.
        val = f_pi([10, 1, 1, 2], V4, P4, [0, 1, 2, 3])
        assert val == pytest.approx(ref_f_pi([10, 1, 1, 2], V4, P4, [0, 1, 2, 3]), abs=TOL)
        assert val == pytest.approx(8.2, abs=TOL)
        assert val <= wowa([10, 1, 1, 2], V4, P4) + TOL
        om = ref_rank_weights(V4, P4, [0, 1, 2, 3])
        assert om == pytest.approx([0.8, 0.16, 0.04, 0.0], abs=TOL)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            f_pi([1, 2, 3], [0.5, 0.3, 0.2], [0.4, 0.3, 0.3], [0, 0, 2])

    def test_lower_bound_property(self):
        # any permutation underestimates WOWA for nonincreasing v, positive p
        rng = np.random.RandomState(12)
        for _ in range(500):
            k = rng.randint(1, 12)
            v = random_weights(rng, k)
            p = random_probs(rng, k)
            a = rng.randint(0, 101, size=k).astype(float)
            assert f_pi(a, v, p, rng.permutation(k)) <= wowa(a, v, p) + TOL

    def test_upper_bound_property(self):
        # wowa <= v1 * K * expectation for nonincreasing v
        rng = np.random.RandomState(13)
        for _ in range(500):
            k = rng.randint(1, 12)
            v = random_weights(rng, k)
            p = random_probs(rng, k)
            a = rng.randint(0, 101, size=k).astype(float)
            assert wowa(a, v, p) <= v.values[0] * k * float(np.dot(p.as_array(), a)) + TOL


class TestGenerateWeights:
    def test_sums_to_one(self):
        for alpha in (1e-4, 1e-3, 1e-2, 0.1, 0.9):
            for k in (1, 2, 5, 20):
                assert math.isclose(sum(generate_weights(alpha, k).values), 1.0, abs_tol=TOL)

    def test_first_weight_closed_form(self):
        v = generate_weights(0.1, 4)
        assert v.values[0] == pytest.approx((1 - 0.1**0.25) / 0.9, abs=1e-12)

    def test_strictly_decreasing_for_small_alpha(self):
        v = generate_weights(1e-4, 4).values
        assert v[0] > v[1] > v[2] > v[3]

    def test_nonincreasing_across_grid(self):
        for alpha in (1e-2, 1e-3, 1e-4):
            for k in range(1, 21):
                assert generate_weights(alpha, k).is_nonincreasing

    def test_nonincreasing_near_uniform(self):
        for alpha in (1 - 1e-7, 1 - 1e-9):
            for k in range(1, 60):
                assert generate_weights(alpha, k).is_nonincreasing, (alpha, k)

    def test_plain_increments_where_already_nonincreasing(self):
        for alpha in (1e-2, 1e-4, 0.5):
            for k in range(1, 61):
                z = np.arange(k + 1) / k
                increments = np.diff((1.0 - alpha**z) / (1.0 - alpha))
                assert generate_weights(alpha, k) == WeightVector(increments)

    def test_matches_high_precision_near_alpha_one(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        for alpha in (1 - 2**-53, 1 - 1e-12, 1 - 1e-9, 1 - 1e-6):
            a = mpmath.mpf(alpha)
            for k in range(1, 61):
                g = [(1 - a ** (mpmath.mpf(j) / k)) / (1 - a) for j in range(k + 1)]
                exact = np.array([float(g[j + 1] - g[j]) for j in range(k)])
                v = generate_weights(alpha, k)
                assert v.is_nonincreasing, (alpha, k)
                assert np.max(np.abs(v.as_array() - exact)) <= 1e-12, (alpha, k)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            generate_weights(0.0, 4)
        with pytest.raises(ValueError):
            generate_weights(1.0, 4)
        with pytest.raises(ValueError):
            generate_weights(0.5, 0)

    @pytest.mark.parametrize("k", [2.5, True, 2.0])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="^K must be an integer"):
            generate_weights(0.5, k)

    def test_numpy_integer_k_accepted(self):
        assert generate_weights(0.5, np.int64(3)) == generate_weights(0.5, 3)


def test_rank_weights_type_carries_permutation():
    rw = rank_weights(V4, P4, (2, 0, 1, 3))
    assert isinstance(rw, RankWeights)
    assert rw.permutation == (2, 0, 1, 3)


@st.composite
def _kernel_inputs(draw):
    k = draw(st.sampled_from([1, 2, 5, 10]))
    positive = st.floats(0.01, 1.0)
    v = np.array(draw(st.lists(positive, min_size=k, max_size=k)))
    p = np.array(draw(st.lists(positive, min_size=k, max_size=k)))
    # small integers give many ties within a column
    entry = st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 1e6))
    column = st.lists(entry, min_size=k, max_size=k)
    columns = draw(st.lists(column, min_size=1, max_size=20))
    return WeightVector(v / v.sum()), ProbabilityVector(p / p.sum()), np.array(columns).T


@settings(max_examples=40, deadline=None)
@given(_kernel_inputs())
def test_wowa_batch_values_do_not_depend_on_batch_width(inputs):
    v, p, distinct = inputs
    alone = [wowa_batch(distinct[:, [s]], v, p)[0].hex() for s in range(distinct.shape[1])]
    # 2048 columns cycling through the distinct ones, each at many positions
    A = distinct[:, np.arange(2048) % distinct.shape[1]]
    expected = [alone[s % distinct.shape[1]] for s in range(2048)]
    for width in (2, 7, 2048):
        values = np.concatenate([wowa_batch(A[:, s:s + width], v, p) for s in range(0, 2048, width)])
        assert [x.hex() for x in values.tolist()] == expected


@st.composite
def _scaled_cost_inputs(draw):
    # costs 10^U(-6, 9), generated (nonincreasing) weights, K <= 6
    k = draw(st.integers(1, 6))
    a = 10.0 ** np.array(draw(st.lists(st.floats(-6.0, 9.0), min_size=k, max_size=k)))
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    v = generate_weights(draw(st.floats(1e-6, 1.0 - 1e-6)), k)
    return a, v, ProbabilityVector(p / p.sum())


@settings(max_examples=100, deadline=None)
@given(_scaled_cost_inputs())
def test_wowa_scales_by_powers_of_two_bit_for_bit(inputs):
    a, v, p = inputs
    value = wowa(a, v, p)
    for k in (-20, -1, 1, 30):
        assert wowa(2.0**k * a, v, p) == 2.0**k * value


@settings(max_examples=100, deadline=None)
@given(_scaled_cost_inputs())
def test_every_permutation_bounds_wowa_from_below_at_scale(inputs):
    a, v, p = inputs
    k = a.size
    ceiling = wowa(a, v, p) + k * 2.0**-52 * a.max()
    for pi in itertools.permutations(range(k)):
        assert f_pi(a, v, p, pi) <= ceiling
