"""OWA and WOWA aggregation operators and their weight machinery.

Aggregation here is rank dependent: a cost vector is sorted in nonincreasing
order and each position receives a weight obtained by pushing cumulative
scenario probabilities through a piecewise-linear distortion function.  With
uniform probabilities this reduces to the classic OWA operator; with uniform
importance weights it reduces to the expected value, and the vector
(1, 0, ..., 0) yields the (weighted) maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "SUM_TOL",
    "NonIncreasingWeightsError",
    "WeightVector",
    "ProbabilityVector",
    "DistortionFunction",
    "RankWeights",
    "wstar_eval",
    "rank_weights",
    "wowa",
    "wowa_batch",
    "owa",
    "f_pi",
    "generate_weights",
]

# Weight and probability vectors must sum to one within this absolute
# tolerance; they are then renormalized by their exact float sum so that
# cumulative sums are drift free.
SUM_TOL = 1e-9


class NonIncreasingWeightsError(ValueError):
    """A method that needs v1 >= v2 >= ... >= vK was given other weights."""


def _vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _is_int(value) -> bool:
    # a count such as K or a kind's size: a Python or numpy integer, not a
    # bool and not a float such as 2.0
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _nonincreasing(arr: np.ndarray) -> bool:
    # one exact rule for WeightVector.is_nonincreasing and DistortionFunction.is_concave
    return bool(np.all(arr[:-1] >= arr[1:]))


def _check_permutation(perm, k: int) -> tuple[int, ...]:
    perm = tuple(int(i) for i in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"expected a permutation of 0..{k - 1}, got {perm}")
    return perm


@dataclass(frozen=True, init=False)
class WeightVector:
    """Importance weights in [0, 1] summing to one, one per scenario rank.

    ``is_nonincreasing`` is True iff v_1 >= v_2 >= ... >= v_K; every
    guarantee that needs risk-averse weights (approximation ratio, MIP
    construction) checks this flag.
    """

    values: tuple[float, ...]
    is_nonincreasing: bool

    def __init__(self, values: Sequence[float]):
        arr = _vector(values, "v")
        if np.any(arr < -SUM_TOL) or np.any(arr > 1.0 + SUM_TOL):
            raise ValueError("weight components must lie in [0, 1]")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        if abs(total - 1.0) > 1e-12:  # skip a no-op divide so round-trips are exact
            arr = arr / total
        arr = np.clip(arr, 0.0, 1.0)
        object.__setattr__(self, "values", tuple(arr.tolist()))
        object.__setattr__(self, "is_nonincreasing", _nonincreasing(arr))

    @property
    def k(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    @classmethod
    def uniform(cls, k: int) -> "WeightVector":
        return cls([1.0 / k] * k)

    @cached_property
    def distortion(self) -> "DistortionFunction":
        """The distortion w* of these weights, built on first use."""
        d = DistortionFunction(np.concatenate(([0.0], np.cumsum(self.as_array()))))
        # its slopes are the weights, not differences of their rounded sums
        object.__setattr__(d, "_slopes", self.as_array())
        return d


@dataclass(frozen=True, init=False)
class ProbabilityVector:
    """Scenario probabilities, strictly positive and summing to one.

    Zero-probability scenarios are rejected here; drop them (see
    ``wowaopt.model.remove_zero_scenarios``) before construction.
    """

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        arr = _vector(values, "p")
        if np.any(arr <= 0.0):
            raise ValueError("probabilities must be strictly positive")
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        if abs(total - 1.0) > 1e-12:  # skip a no-op divide so round-trips are exact
            arr = arr / total
        object.__setattr__(self, "values", tuple(arr.tolist()))

    @property
    def k(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.array(self.values, dtype=float)

    @classmethod
    def uniform(cls, k: int) -> "ProbabilityVector":
        return cls([1.0 / k] * k)

    @cached_property
    def _array(self) -> np.ndarray:
        # read-only: one array is shared by every evaluation
        arr = self.as_array()
        arr.flags.writeable = False
        return arr


@dataclass(frozen=True, init=False)
class DistortionFunction:
    """Piecewise-linear distortion w* on [0, 1] with breakpoints at j/K.

    Ordinate j is the exact cumulative sum v_1 + ... + v_j (no
    interpolation error at breakpoints); w*(0) = 0.  The function is
    nondecreasing, and concave exactly when the source weights are
    nonincreasing.
    """

    breakpoints: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float]):
        bp = _vector(breakpoints, "breakpoints")
        if bp.size < 2:
            raise ValueError("need at least 2 breakpoints")
        if bp[0] != 0.0:
            raise ValueError("w*(0) must be 0")
        if np.any(np.diff(bp) < -SUM_TOL):
            raise ValueError("breakpoint ordinates must be nondecreasing")
        object.__setattr__(self, "breakpoints", tuple(bp.tolist()))
        object.__setattr__(self, "_bp", bp)
        object.__setattr__(self, "_grid", np.arange(bp.size) / (bp.size - 1))
        object.__setattr__(self, "_slopes", np.diff(bp))

    @classmethod
    def from_weights(cls, v: WeightVector | Sequence[float]) -> "DistortionFunction":
        return _coerce_v(v).distortion

    @property
    def k(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def is_concave(self) -> bool:
        return _nonincreasing(self._slopes)

    def __call__(self, t: float) -> float:
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"w* is defined on [0, 1], got {t!r}")
        return float(np.interp(t, self._grid, self._bp))


def wstar_eval(d: DistortionFunction, t: float) -> float:
    """Evaluate the distortion function at t in [0, 1]."""
    return d(t)


@dataclass(frozen=True)
class RankWeights:
    """Distorted rank weights omega_j plus the scenario ordering behind them."""

    omegas: tuple[float, ...]
    permutation: tuple[int, ...]

    def as_array(self) -> np.ndarray:
        return np.array(self.omegas, dtype=float)


def _coerce_v(v) -> WeightVector:
    return v if isinstance(v, WeightVector) else WeightVector(v)


def _coerce_p(p) -> ProbabilityVector:
    return p if isinstance(p, ProbabilityVector) else ProbabilityVector(p)


def _cumulate(p: np.ndarray, order) -> np.ndarray:
    # P_j along axis 0 in this order, clamped so float drift stays in w*'s domain [0, 1]
    return np.clip(np.cumsum(p[order], axis=0), 0.0, 1.0)


def _worst_first(a: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order of a along axis 0, largest first and ties by ascending index, with its P_j."""
    order = np.argsort(-a, axis=0, kind="stable")
    return order, _cumulate(p, order)


def _rank_omegas(v: WeightVector, cum: np.ndarray) -> np.ndarray:
    """Rank weights along axis 0 from the clamped cumulative probabilities P_j.

    omega_j = w*(P_j) - w*(P_{j-1}).  Every rank weight in the package comes
    from here, so all of them agree bit for bit.
    """
    d = v.distortion
    omega = np.interp(cum, d._grid, d._bp)
    omega[1:] -= omega[:-1].copy()
    return omega


def rank_weights(v, p, sigma) -> RankWeights:
    """Rank weights omega_j = w*(sum_{i<=j} p_sigma(i)) - w*(sum_{i<j} p_sigma(i)).

    ``sigma`` is any permutation of scenario indices (0-based); it does not
    have to sort anything.  Cumulative probability sums are clamped to
    [0, 1] so float drift cannot leave the domain of w*.
    """
    v = _coerce_v(v)
    p = _coerce_p(p)
    if v.k != p.k:
        raise ValueError(f"v has {v.k} components but p has {p.k}")
    sigma = _check_permutation(sigma, p.k)
    omegas = _rank_omegas(v, _cumulate(p._array, list(sigma)))
    return RankWeights(omegas=tuple(omegas.tolist()), permutation=sigma)


def wowa_batch(a_columns: np.ndarray, v, p) -> np.ndarray:
    """WOWA of every column of a K-by-S matrix in one vectorized pass.

    This is the single evaluation kernel for the whole package: scalar
    ``wowa`` wraps it with S=1, so every code path produces bit-identical
    values for the same cost vector.  Ties in the sort are broken by
    ascending scenario index, which is safe because the result is tie-order
    independent.
    """
    v = _coerce_v(v)
    p = _coerce_p(p)
    A = np.asarray(a_columns, dtype=float)
    if A.ndim != 2 or A.shape[0] != v.k:
        raise ValueError(f"expected a {v.k}-row matrix, got shape {A.shape}")
    if v.k != p.k:
        raise ValueError(f"v has {v.k} components but p has {p.k}")
    order, cum = _worst_first(A, p._array)
    sa = np.take_along_axis(A, order, axis=0)
    omega = _rank_omegas(v, cum)
    # Accumulate row by row so the float result is independent of the batch
    # width; numpy reductions change association with shape otherwise.
    out = np.zeros(A.shape[1])
    for k in range(A.shape[0]):
        out += omega[k] * sa[k]
    return out


def wowa(a, v, p) -> float:
    """WOWA of the cost vector a under importance weights v and probabilities p."""
    a = _vector(a, "a")
    value = wowa_batch(a.reshape(-1, 1), v, p)
    return float(value[0])


def owa(a, w) -> float:
    """Ordered weighted average: weights applied to a sorted nonincreasing."""
    w = _coerce_v(w)
    a = _vector(a, "a")
    if a.size != w.k:
        raise ValueError(f"a has {a.size} components but w has {w.k}")
    return float(np.dot(w.as_array(), np.sort(a)[::-1]))


def f_pi(a, v, p, pi) -> float:
    """Rank-weight functional under an arbitrary permutation pi.

    Equals wowa(a, v, p) when pi sorts a in nonincreasing order; for any
    other pi it is a lower bound on the WOWA value (given nonincreasing v
    and positive p), which is what makes it useful as a relaxation.
    """
    a = _vector(a, "a")
    rw = rank_weights(v, p, pi)
    if a.size != len(rw.omegas):
        raise ValueError(f"a has {a.size} components but expected {len(rw.omegas)}")
    return float(np.dot(rw.as_array(), a[list(rw.permutation)]))


def generate_weights(alpha: float, k: int) -> WeightVector:
    """Nonincreasing weight vector from the concave generator (1 - alpha^z) / (1 - alpha).

    v_j is the increment of the generator between (j-1)/K and j/K, so the
    vector sums to one by construction, and it is nonincreasing for every
    alpha in (0, 1).  Smaller alpha concentrates weight on the first ranks
    (more risk averse).  The plain increments are kept, bit for bit, only if
    nonincreasing and each within 1e-12 (absolute) of the increments of the
    expm1 form, which is accurate to a few ulps; otherwise the running minimum
    of the latter is returned.  So each weight is within about 1e-12 of exact.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
    if not _is_int(k):
        raise ValueError(f"K must be an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"K must be positive, got {k!r}")
    z = np.arange(k + 1) / k
    v = np.diff((1.0 - alpha**z) / (1.0 - alpha))
    # The rounding error of 1 - alpha**z, about 1e-16 / (1 - alpha) after the
    # division, swamps the increments near alpha = 1 (at alpha = 1 - 2**-53 it
    # gives (1, 0) for K = 2), even where it leaves them nonincreasing.
    careful = np.diff(-np.expm1(z * np.log(alpha)) / (1.0 - alpha))
    if np.any(v[1:] > v[:-1]) or np.max(np.abs(v - careful)) > 1e-12:
        v = np.minimum.accumulate(careful)
    return WeightVector(v)
