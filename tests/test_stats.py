"""Spearman correlation and k-means tests against independent oracles."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossflow.stats import (
    DegenerateDataError,
    _t_tail_p,
    kmeans2,
    rank_average_ties,
    spearman,
)

from oracles import permutation_p_oracle, rank_with_ties

# Two-sided t-test p of a correlation r over n observations, n -> r -> p, as
# scipy.stats.t.sf gave it (2 * sf(|t|, n - 2), t = r * sqrt((n - 2) /
# (1 - r^2))); recorded before the t tail moved to the incomplete beta
# function.  The values are even in r.
SCIPY_T_TAIL = {
    11: {
        0.0: 1.0,
        0.05: 0.8839284218322622,
        0.4: 0.22286835013351997,
        0.9: 0.00015997142806871366,
        0.999: 1.8483855820426185e-13,
        1.0: 0.0,
    },
    12: {
        0.0: 1.0,
        0.05: 0.8773623594965363,
        0.4: 0.19761731999999993,
        0.9: 6.644441406249981e-05,
        0.999: 7.861883435038807e-15,
        1.0: 0.0,
    },
    20: {
        0.0: 1.0,
        0.05: 0.8341834790286147,
        0.4: 0.08055387210850923,
        0.9: 6.574284544497215e-08,
        0.999: 9.461962149391849e-26,
        1.0: 0.0,
    },
    50: {
        0.0: 1.0,
        0.05: 0.7302245731006409,
        0.4: 0.004000671057148972,
        0.9: 6.207067394041554e-19,
        0.999: 1.9009987456813004e-66,
        1.0: 0.0,
    },
    400: {
        0.0: 1.0,
        0.05: 0.3185245342647711,
        0.4: 8.427883920459842e-17,
        0.9: 1.315817018253777e-145,
        0.999: 0.0,
        1.0: 0.0,
    },
}

# Tied n = 10 inputs with their exact permutation p (a count over 10!),
# recorded from the numpy permutation loop this module used before.
TIED_N10 = [
    ([1, 2, 2, 3, 4, 5, 5, 6, 7, 8], [2, 1, 3, 3, 5, 4, 7, 6, 6, 9],
     0.0008024691358024691),
    ([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], [2, 7, 1, 8, 2, 8, 1, 8, 2, 8],
     0.7065873015873015),
    ([1, 1, 1, 2, 2, 2, 3, 3, 3, 4], [4, 3, 3, 3, 2, 2, 2, 1, 1, 2],
     0.008809523809523809),
]


class TestSpearman:
    def test_strictly_increasing_r_one(self):
        res = spearman([1, 2, 3, 4], [10, 20, 30, 40])
        assert res.r == pytest.approx(1.0)
        assert res.significant

    def test_strictly_reversed_r_minus_one(self):
        res = spearman([1, 2, 3, 4], [9, 7, 5, 3][::-1][::-1])
        assert spearman([1, 2, 3, 4], [9, 7, 5, 3]).r == pytest.approx(-1.0)

    def test_tied_fixture_matches_rank_oracle(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        ys = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0]
        assert rank_average_ties(xs) == rank_with_ties(xs)
        assert rank_average_ties(ys) == rank_with_ties(ys)
        res = spearman(xs, ys)
        # Pearson over oracle ranks, computed inline
        rx, ry = rank_with_ties(xs), rank_with_ties(ys)
        n = len(rx)
        mx, my = sum(rx) / n, sum(ry) / n
        num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
        den = math.sqrt(
            sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
        )
        assert res.r == pytest.approx(num / den, abs=1e-12)

    def test_constant_series_undefined(self):
        res = spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert res.r is None and res.p is None and not res.significant

    def test_significance_rule_threshold(self):
        assert spearman([1, 2, 3, 4, 5], [1, 2, 3, 5, 4]).significant
        weak = spearman(
            [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
            [5, 2, 8, 1, 9, 3, 7, 4, 10, 6, 5.5],
        )
        assert weak.significant == (abs(weak.r) >= 0.4)

    def test_length_and_size_validation(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [1, 2])
        with pytest.raises(ValueError):
            spearman([1, 2, 3], [1, 2])

    def test_exact_permutation_p_for_perfect_small_sample(self):
        res = spearman([1, 2, 3], [1, 2, 3])
        # 2 of 6 permutations reach |r| = 1
        assert res.p == pytest.approx(2 / 6)

    @given(
        st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=5,
            max_size=8,
            unique=True,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, xs):
        xs = [float(x) for x in xs]
        ys = [x * 3.0 + 1.0 for x in xs]
        base = spearman(xs, ys)
        cubed = spearman([x**3 for x in xs], ys)
        assert base.r == pytest.approx(cubed.r, abs=1e-9)

    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in SCIPY_T_TAIL for r in SCIPY_T_TAIL[n]]
    )
    def test_t_tail_matches_recorded_scipy_values(self, n, r):
        want = SCIPY_T_TAIL[n][r]
        for signed in (r, -r):
            got = _t_tail_p(signed, n)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("xs,ys,want", TIED_N10)
    def test_tied_n10_matches_recorded_p(self, xs, ys, want):
        assert spearman(xs, ys).p == want

    @given(
        st.integers(min_value=3, max_value=8).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 4), min_size=n, max_size=n),
                st.lists(st.integers(0, 4), min_size=n, max_size=n),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_p_equals_brute_force(self, pair):
        xs, ys = pair
        res = spearman(xs, ys)
        if res.r is None:
            assert len(set(xs)) == 1 or len(set(ys)) == 1
            return
        want = permutation_p_oracle(
            rank_with_ties(xs), rank_with_ties(ys), abs(res.r)
        )
        assert res.p == want


class TestKMeans2:
    def test_two_separated_blobs(self):
        rng = random.Random(0)
        blob_a = [(rng.gauss(0, 0.3), rng.gauss(0, 0.3)) for _ in range(20)]
        blob_b = [(rng.gauss(10, 0.3), rng.gauss(10, 0.3)) for _ in range(20)]
        res = kmeans2(blob_a + blob_b, seed=1)
        first = set(res.labels[:20])
        second = set(res.labels[20:])
        assert len(first) == 1 and len(second) == 1 and first != second

    def test_two_points_each_own_cluster(self):
        res = kmeans2([(0.0,), (5.0,)])
        assert sorted(res.labels) == [0, 1]
        assert set(res.centers) == {(0.0,), (5.0,)}

    def test_identical_points_rejected(self):
        with pytest.raises(DegenerateDataError):
            kmeans2([(1.0, 2.0), (1.0, 2.0), (1.0, 2.0)])

    def test_centers_equal_cluster_means(self):
        rng = random.Random(3)
        pts = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(30)]
        pts += [(rng.uniform(8, 9), rng.uniform(8, 9)) for _ in range(10)]
        res = kmeans2(pts, seed=2)
        for cluster in (0, 1):
            members = [p for p, l in zip(pts, res.labels) if l == cluster]
            mean = tuple(sum(c) / len(members) for c in zip(*members))
            for got, want in zip(res.centers[cluster], mean):
                assert abs(got - want) < 1e-9

    def test_label_swap_symmetry(self):
        pts = [(0.0,), (0.1,), (5.0,), (5.2,)]
        res = kmeans2(pts, seed=0)
        pairs = {(res.labels[0], res.labels[1]), (res.labels[2], res.labels[3])}
        assert {p[0] for p in pairs} == {0, 1} or len(pairs) == 2
        # the partition, not its labeling, is what matters
        assert res.labels[0] == res.labels[1]
        assert res.labels[2] == res.labels[3]
        assert res.labels[0] != res.labels[2]

    def test_objective_non_increasing(self):
        rng = random.Random(9)
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(40)]

        # recompute the Lloyd trajectory step by step and check inertia
        def inertia(labels, centers):
            return sum(
                sum((x - c) ** 2 for x, c in zip(p, centers[l]))
                for p, l in zip(pts, labels)
            )

        res = kmeans2(pts, seed=4)
        # run the public function with increasing max_iter and verify the
        # within-cluster sum of squares never rises between snapshots
        prev = None
        for iters in range(1, res.iterations + 1):
            snap = kmeans2(pts, seed=4, max_iter=iters)
            val = inertia(snap.labels, snap.centers)
            if prev is not None:
                assert val <= prev + 1e-9
            prev = val

    def test_deterministic_for_seed(self):
        pts = [(i % 7, (i * 3) % 5) for i in range(25)]
        assert kmeans2(pts, seed=5) == kmeans2(pts, seed=5)
