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
from functools import cached_property, lru_cache
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


def _reals(values, name: str, ndim: int, error: type = ValueError) -> np.ndarray:
    """Real-number input as a float array of ndim dimensions; every public entry reads through it.

    Entries are Python or numpy ints and floats: bools, strings and None,
    which numpy would coerce, raise error naming the argument, and so does
    ragged nesting.  A float64 array passes as it is, not copied.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        arr = values.astype(float, copy=False)
    elif type(values) in (list, tuple) and set(map(type, values)) <= {int, float}:
        arr = np.array(values, dtype=float)  # a flat list: one pass over its entry types
    else:
        try:
            arr = np.array(values, dtype=object)
        except ValueError:  # nested sequences numpy cannot shape
            arr = np.empty(0, dtype=object)
        if arr.ndim == ndim:
            for x in arr.flat:
                if not _is_real(x):
                    raise error(f"{name}: expected a number, got {x!r}")
            arr = arr.astype(float)
    if arr.ndim != ndim:
        raise error(f"{name}: must be {('a number', 'a vector', 'a K-by-n matrix')[ndim]}")
    return arr


def _vector(values, name: str) -> np.ndarray:
    arr = _reals(values, name, 1)
    if arr.size == 0:
        raise ValueError(f"{name}: must not be empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: contains non-finite entries")
    return arr


def _is_real(x) -> bool:
    # a real number: a Python or numpy int or float, not a bool
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _is_int(value) -> bool:
    # an integer: a Python or numpy integer, not a bool and not a float such as 2.0
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """A count, size, seed or index as a Python int in low..high; every public entry reads through it.

    Python and numpy integers pass; bools, floats such as 2.0 and anything
    else raise ValueError naming the argument.  high needs low.
    """
    if _is_int(value) and (low is None or value >= low) and (high is None or value <= high):
        return int(value)
    bounds = "" if low is None else f" of at least {low}" if high is None else f" in {low}..{high}"
    raise ValueError(f"{name}: must be an integer{bounds}, got {value!r}")


def _indices(values, name: str, n: int | None = None):
    """Element indices as Python ints, in 0..n-1 if n is given; every public entry reads through it.

    Python and numpy integers pass, bools and floats such as 1.0 raise.
    Returns values itself when all are Python ints, else a list.
    """
    read = values
    if not set(map(type, values)) <= {int}:  # the common case in one pass
        read = [int(i) for i in values] if all(map(_is_int, values)) else None
    if read is None or n is not None and read and not (min(read) >= 0 and max(read) < n):
        problem = "must be integers" if n is None else f"not an integer or outside 0..{n - 1}"
        raise ValueError(f"{name} {problem}, got {list(values)!r}")
    return read


def _check_alpha(alpha: float) -> float:
    # the weight generator's parameter: a number in (0, 1); NaN is out of range
    if not (_is_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha: must be a number in (0, 1), got {alpha!r}")
    return alpha


def _nonincreasing(arr: np.ndarray) -> bool:
    # one exact rule for WeightVector.is_nonincreasing and DistortionFunction.is_concave
    return bool(np.all(arr[:-1] >= arr[1:]))


class _Simplex:
    """What p and v share: values summing to one; each subclass adds its entry rule.

    A plain class: each dataclass adds to the import time.
    """

    @staticmethod
    def _sum_to_one(arr: np.ndarray, name: str, noun: str) -> np.ndarray:
        total = float(arr.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"{name}: {noun} must sum to 1, got {total!r}")
        if abs(total - 1.0) > 1e-12:  # skip a no-op divide so round-trips are exact
            arr = arr / total
        return arr

    @property
    def k(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        """The values as a float array: one read-only array, built on first call and shared."""
        # kept in the instance dict, past a frozen dataclass's __setattr__, as cached_property does
        arr = self.__dict__.get("_as_array")
        if arr is None:
            arr = self.__dict__["_as_array"] = np.array(self.values, dtype=float)
            arr.flags.writeable = False
        return arr

    @classmethod
    def uniform(cls, k: int):
        k = _integer(k, "K", 1)
        return cls([1.0 / k] * k)

    @classmethod
    def _read(cls, values):
        # a raw argument as this type; an instance of it passes as it is
        return values if isinstance(values, cls) else cls(values)


@dataclass(frozen=True, init=False)
class WeightVector(_Simplex):
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
            raise ValueError("v: weight components must lie in [0, 1]")
        arr = np.clip(self._sum_to_one(arr, "v", "weights"), 0.0, 1.0)
        object.__setattr__(self, "values", tuple(arr.tolist()))
        object.__setattr__(self, "is_nonincreasing", _nonincreasing(arr))

    @cached_property
    def distortion(self) -> "DistortionFunction":
        """The distortion w* of these weights, built on first use."""
        d = DistortionFunction(np.concatenate(([0.0], np.cumsum(self.as_array()))))
        # its slopes are the weights, not differences of their rounded sums
        object.__setattr__(d, "_slopes", self.as_array())
        return d

    @cached_property
    def expectation_factor(self) -> float:
        """The largest c with w*(t) >= c*t on [0, 1]: the minimum of K*V_j/j.

        So wowa(a, v, p) >= c * (p . a) for every cost vector a >= 0 and any
        p: by Abel summation WOWA is the sum of (a_(j) - a_(j+1)) * w*(P_j)
        over the costs sorted worst first (a_(K+1) = 0), and w*(t)/t is
        monotone on each linear piece of w*, so smallest at a breakpoint j/K.
        c is 1 (up to rounding) for nonincreasing weights and 0 for the
        weighted minimum.
        """
        bp = self.distortion._bp
        return float(np.min(bp[1:] * self.k / np.arange(1, self.k + 1)))


@dataclass(frozen=True, init=False)
class ProbabilityVector(_Simplex):
    """Scenario probabilities, strictly positive and summing to one.

    Zero-probability scenarios are rejected here; drop them (see
    ``wowaopt.model.remove_zero_scenarios``) before construction.
    """

    values: tuple[float, ...]

    def __init__(self, values: Sequence[float]):
        arr = _vector(values, "p")
        if np.any(arr <= 0.0):
            raise ValueError("p: probabilities must be strictly positive")
        object.__setattr__(self, "values", tuple(self._sum_to_one(arr, "p", "probabilities").tolist()))


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
        return WeightVector._read(v).distortion

    @property
    def k(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def is_concave(self) -> bool:
        return _nonincreasing(self._slopes)

    def __call__(self, t: float) -> float:
        t = float(_reals(t, "t", 0))
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


def _cumulate(p: np.ndarray, order) -> np.ndarray:
    # P_j along axis 0 in this order, clamped so float drift stays in w*'s
    # domain [0, 1]; the sums of positive p are never below 0
    cum = np.cumsum(p[order], axis=0)
    return np.minimum(cum, 1.0, out=cum)


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
    v = WeightVector._read(v)
    p = ProbabilityVector._read(p)
    if v.k != p.k:
        raise ValueError(f"v has {v.k} components but p has {p.k}")
    sigma = tuple(_indices(tuple(sigma), "permutation entry", p.k))
    if sorted(sigma) != list(range(p.k)):
        raise ValueError(f"expected a permutation of 0..{p.k - 1}, got {sigma}")
    omegas = _rank_omegas(v, _cumulate(p.as_array(), list(sigma)))
    return RankWeights(omegas=tuple(omegas.tolist()), permutation=sigma)


def wowa_batch(a_columns: np.ndarray, v, p) -> np.ndarray:
    """WOWA of every column of a K-by-S matrix in one vectorized pass.

    This is the single evaluation kernel for the whole package: scalar
    ``wowa`` wraps it with S=1, so every code path produces bit-identical
    values for the same cost vector.  Ties in the sort are broken by
    ascending scenario index, which is safe because the result is tie-order
    independent.
    """
    v = WeightVector._read(v)
    p = ProbabilityVector._read(p)
    A = _reals(a_columns, "a_columns", 2)
    if A.shape[0] != v.k:
        raise ValueError(f"expected a {v.k}-row matrix, got shape {A.shape}")
    if v.k != p.k:
        raise ValueError(f"v has {v.k} components but p has {p.k}")
    order, cum = _worst_first(A, p.as_array())
    sa = A[order, np.arange(A.shape[1])]
    terms = _rank_omegas(v, cum) * sa
    # Accumulate row by row so the float result is independent of the batch
    # width; numpy reductions change association with shape otherwise.
    out = np.zeros(A.shape[1])
    for row in terms:
        out += row
    return out


def wowa(a, v, p) -> float:
    """WOWA of the cost vector a under importance weights v and probabilities p."""
    a = _vector(a, "a")
    value = wowa_batch(a.reshape(-1, 1), v, p)
    return float(value[0])


def owa(a, w) -> float:
    """Ordered weighted average: weights applied to a sorted nonincreasing."""
    w = WeightVector._read(w)
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
    Each (float(alpha), K) vector is made once and shared: it is immutable.
    """
    # read before the cache, which would take True or 2.0 for 1 or 2
    return _generated_weights(float(_check_alpha(alpha)), _integer(k, "K", 1))


@lru_cache(maxsize=64)
def _generated_weights(alpha: float, k: int) -> WeightVector:
    z = np.arange(k + 1) / k
    v = np.diff((1.0 - alpha**z) / (1.0 - alpha))
    # The rounding error of 1 - alpha**z, about 1e-16 / (1 - alpha) after the
    # division, swamps the increments near alpha = 1 (at alpha = 1 - 2**-53 it
    # gives (1, 0) for K = 2), even where it leaves them nonincreasing.
    careful = np.diff(-np.expm1(z * np.log(alpha)) / (1.0 - alpha))
    if np.any(v[1:] > v[:-1]) or np.max(np.abs(v - careful)) > 1e-12:
        v = np.minimum.accumulate(careful)
    return WeightVector(v)
