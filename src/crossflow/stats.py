"""Rank correlation and two-cluster classification, in pure Python.

Spearman correlation uses average ranks for ties; an absolute coefficient
of at least 0.4 counts as significant.  Its two-sided p-value is exact for
n <= 10: a dynamic program over the set of used ranks keeps how many
pairings of the two rank vectors reach each value of the cross sum
sum_i x_i * y_pi(i); doubled ranks make every sum an integer, ties
included.  For larger n it is the Student t tail with df = n - 2,
2 * sf(|t|, df) = I_x(df / 2, 1/2) at x = df / (df + t^2) = 1 - r^2, where
the regularized incomplete beta function I comes from a Lentz continued
fraction over ``math.lgamma``.  Clustering is plain Lloyd iteration with
k = 2 (normal versus anomalous) and deterministic farthest-point
initialization.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

SIGNIFICANT_ABS_R = 0.4
EXACT_PERMUTATION_MAX_N = 10


class DegenerateDataError(ValueError):
    pass


@dataclass(frozen=True)
class SpearmanResult:
    r: Optional[float]
    p: Optional[float]
    significant: bool
    n: int

    def defined(self) -> bool:
        return self.r is not None


def rank_average_ties(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def spearman(xs: Sequence[float], ys: Sequence[float]) -> SpearmanResult:
    """Rank correlation with tie-aware ranks.

    Constant series have no defined rank correlation; the result reports r
    and p as None rather than raising.
    """
    if len(xs) != len(ys):
        raise ValueError("series lengths differ")
    n = len(xs)
    if n < 3:
        raise ValueError("need at least 3 observations")
    rx = rank_average_ties(xs)
    ry = rank_average_ties(ys)
    r = _pearson(rx, ry)
    if r is None:
        return SpearmanResult(None, None, False, n)
    if n <= EXACT_PERMUTATION_MAX_N:
        p = _exact_permutation_p(rx, ry, abs(r))
    else:
        p = _t_tail_p(r, n)
    return SpearmanResult(r, min(p, 1.0), abs(r) >= SIGNIFICANT_ABS_R, n)


def _exact_permutation_p(
    rx: Sequence[float], ry: Sequence[float], observed_abs: float
) -> float:
    """Exact two-sided p over all n! pairings of the two rank vectors.

    Only the cross sum sum_i x_i * y_pi(i) varies across permutations pi.
    x_0, x_1, ... are paired in turn; a partial pairing is keyed by the set
    of y positions it used (a bitmask), and each key keeps how many
    pairings reach each partial sum, so at most 2^n keys stand for the n!
    permutations.  Average ranks are multiples of 1/2, so doubled ranks
    make every sum an exact integer.
    """
    n = len(rx)
    xs = [round(2 * v) for v in rx]
    ys = [round(2 * v) for v in ry]
    layer: dict[int, dict[int, int]] = {0: {0: 1}}
    for x in xs:
        products = [(1 << j, x * y) for j, y in enumerate(ys)]
        nxt: dict[int, dict[int, int]] = {}
        for used, sums in layer.items():
            for bit, xy in products:
                if used & bit:
                    continue
                dist = nxt.setdefault(used | bit, {})
                for s, count in sums.items():
                    dist[s + xy] = dist.get(s + xy, 0) + count
        layer = nxt
    (sums,) = layer.values()
    mx = sum(rx) / n
    my = sum(ry) / n
    denom = math.sqrt(
        sum((v - mx) ** 2 for v in rx) * sum((v - my) ** 2 for v in ry)
    )
    shift = n * mx * my  # sum (x - mx)(y - my) = sum x * y - n * mx * my
    at_least = sum(
        count
        for s, count in sums.items()
        if abs(s / 4 - shift) / denom >= observed_abs - 1e-12
    )
    return at_least / math.factorial(n)


def _t_tail_p(r: float, n: int) -> float:
    """Two-sided p of the t test of a correlation r over n observations.

    With df = n - 2 and t = r * sqrt(df / (1 - r^2)), 2 * sf(|t|, df) is
    I_x(df / 2, 1/2) at x = df / (df + t^2), which is just 1 - r^2; it
    needs no t, so |r| = 1 gives p = 0 without overflow.
    """
    y = r * r
    if y >= 1.0:
        return 0.0
    return _betainc(0.5 * (n - 2), 0.5, 1.0 - y, y)


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for 0 < x <= 1, with
    y = 1 - x given separately so that a small y keeps its precision."""
    if y <= 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(y)
    )
    # the continued fraction converges fast below the mode; above it, use
    # I_x(a, b) = 1 - I_y(b, a)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


_TINY = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """1 / (1 + d1 / (1 + d2 / (1 + ...))), the continued fraction of the
    incomplete beta function, by the modified Lentz method, where
    d(2m+1) = -(a+m)(a+b+m)x / ((a+2m)(a+2m+1)) and
    d(2m) = m(b-m)x / ((a+2m-1)(a+2m))."""
    f, c, d = 1.0, 1.0, 0.0
    for m in range(10_000):
        for term in (
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
            (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2)),
        ):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + term / c
            if abs(c) < _TINY:
                c = _TINY
            f *= c * d
        if abs(c * d - 1.0) < 1e-15:
            return 1.0 / f
    raise ArithmeticError("incomplete beta continued fraction did not converge")


@dataclass(frozen=True)
class KMeansResult:
    labels: tuple[int, ...]
    centers: tuple[tuple[float, ...], ...]
    inertia: float
    iterations: int


def _dist2(a: Sequence[float], b: Sequence[float]) -> float:
    return sum((x - y) ** 2 for x, y in zip(a, b))


def kmeans2(
    points: Sequence[Sequence[float]],
    seed: int = 0,
    max_iter: int = 200,
) -> KMeansResult:
    """Two-cluster Lloyd iteration with farthest-point initialization.

    The seeded RNG picks the first center among the points; the second is
    the point farthest from it.  Iteration stops when assignments no longer
    change; each returned center is the mean of its cluster.
    """
    pts = [tuple(float(v) for v in p) for p in points]
    if len(set(pts)) < 2:
        raise DegenerateDataError("k-means with k=2 needs two distinct points")
    dims = {len(p) for p in pts}
    if len(dims) != 1:
        raise ValueError("points must share dimensionality")

    rng = random.Random(seed)
    c0 = pts[rng.randrange(len(pts))]
    c1 = max(pts, key=lambda p: (_dist2(p, c0), p))
    centers = [c0, c1]

    labels = [-1] * len(pts)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_labels = [
            min((_dist2(p, c), i) for i, c in enumerate(centers))[1]
            for p in pts
        ]
        for cluster in (0, 1):
            if cluster not in new_labels:
                # re-seat an empty cluster at the farthest point
                far = max(
                    range(len(pts)),
                    key=lambda i: _dist2(pts[i], centers[new_labels[i]]),
                )
                new_labels[far] = cluster
        if new_labels == labels:
            break
        labels = new_labels
        for cluster in (0, 1):
            member = [p for p, l in zip(pts, labels) if l == cluster]
            centers[cluster] = tuple(
                sum(col) / len(member) for col in zip(*member)
            )
    inertia = sum(_dist2(p, centers[l]) for p, l in zip(pts, labels))
    return KMeansResult(tuple(labels), (tuple(centers[0]), tuple(centers[1])), inertia, iterations)
