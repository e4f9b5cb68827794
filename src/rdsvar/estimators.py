"""Design-weighted prevalence estimators over weighted observation multisets.

Every estimator reduces to a ratio of exact integer sums (weights are put
over a common denominator first), so the returned float is the correctly
rounded value of the exact rational estimate. Consequences relied on
elsewhere: results are independent of observation order, expanding a
multiplicity-m observation into m unit copies changes nothing, rescaling
all degrees by a constant leaves the degree-weighted estimate bit-identical,
and equal-degree samples collapse exactly to the plain sample mean. The
bootstrap evaluates its replicates from the same integer terms
(``_degree_terms``), cast to float64. Every sample estimate, the
experiment's width reference included, is one exact int64 sum over the
cells of ``_cell_layout`` and one exact reduction (``_cell_estimates``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import DataError

__all__ = [
    "WeightedSample",
    "PopulationTotals",
    "sample_mean",
    "ipw_estimate",
    "vh_estimate",
]


def _as_positive_ints(values, what: str) -> np.ndarray:
    """``values`` as an int64 array of ``what`` values, each an integer in [1, 2**63 - 1].

    Input numpy cannot cast to int64 losslessly (floats, uint64, Python ints
    beyond int64) is checked value by value before the cast; int64 input
    costs only the minimum.
    """
    arr = np.asarray(values)
    valid = f"{what} must be an integer in [1, 2**63 - 1]"
    if not np.can_cast(arr.dtype, np.int64):
        for v in arr.ravel().tolist():
            try:
                ok = v == int(v) and 1 <= v < 2**63
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise DataError(f"{valid}, got {v!r}")
    arr = arr.astype(np.int64, copy=False)
    if arr.size and int(arr.min()) < 1:
        raise DataError(f"{valid}, got {int(arr.min())}")
    return arr


def _as_z(values, n: int | None = None) -> np.ndarray:
    """``values`` as a float64 array of binary attribute values, with shape (n,) when n is given."""
    try:
        z = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise DataError("z values must be 0 or 1") from None
    if n is not None and z.shape != (n,):
        raise DataError(f"z must have one value per forest entry ({n}), got {z.shape}")
    if z.size and not np.isin(z, (0.0, 1.0)).all():
        raise DataError("z values must be 0 or 1")
    return z


@dataclass
class WeightedSample:
    """Multiset of (z, degree) observations with integer multiplicities.

    The multiplicities sum to less than 2**63, so that no per-degree sum
    of them wraps in int64.
    """

    z: np.ndarray
    degree: np.ndarray
    multiplicity: np.ndarray

    def __post_init__(self):
        self.z = _as_z(self.z)
        self.degree = _as_positive_ints(self.degree, "degree")
        self.multiplicity = m = _as_positive_ints(self.multiplicity, "multiplicity")
        if not (self.z.shape == self.degree.shape == m.shape):
            raise DataError("z, degree, multiplicity must have equal length")
        if m.size and int(m.max()) * m.size >= 2**63 and sum(m.tolist()) >= 2**63:
            raise DataError("multiplicities must sum to less than 2**63")

    @classmethod
    def from_pairs(cls, pairs) -> "WeightedSample":
        """Build from (z, degree) or (z, degree, multiplicity) tuples."""
        rows = [(p[0], p[1], p[2] if len(p) > 2 else 1) for p in pairs]
        z, d, m = zip(*rows) if rows else ((), (), ())
        return cls(np.array(z), np.array(d), np.array(m))

    @property
    def n_effective(self) -> int:
        return int(self.multiplicity.sum())


@dataclass(frozen=True)
class PopulationTotals:
    """Known population size and total degree (the weighting denominators)."""

    n_population: int
    total_degree: int

    def __post_init__(self):
        if self.n_population < 1:
            raise DataError("population size must be positive")
        if self.total_degree < self.n_population:
            raise DataError("total degree below population size (needs all degrees >= 1)")


def _degree_terms(
    degree: np.ndarray, estimator: str, totals: PopulationTotals | None = None
) -> tuple[np.ndarray, list[int], list[int]]:
    """The estimator's exact integer terms, one pair per distinct degree.

    Returns ``(inverse, a, b)``: observation i, with attribute z_i and
    multiplicity m_i, adds z_i * a[inverse[i]] to the numerator and
    b[inverse[i]] to the denominator, and the estimate is
    sum(m * num) / sum(m * den). ``a`` and ``b`` are lists of Python ints
    over the common denominator L = lcm of the distinct degrees:

    * ``sample_mean``: a = 1, b = 1
    * ``vh``: a = b = L / d, the cancelled ratio (sum z/d) / (sum 1/d)
    * ``ipw``: a = T * L / d, b = N * L, i.e. (T / N) * mean(z / d) with
      inclusion probability d / T and N the population size
    """
    if estimator == "ipw" and totals is None:
        raise DataError("ipw estimator requires population totals")
    distinct, inverse = np.unique(degree, return_inverse=True)
    d = distinct.tolist()
    if estimator == "sample_mean":
        return inverse, [1] * len(d), [1] * len(d)
    lcm = math.lcm(*d)
    if estimator == "vh":
        w = [lcm // di for di in d]
        return inverse, w, w
    if estimator == "ipw":
        t, n = int(totals.total_degree), int(totals.n_population)
        return inverse, [t * (lcm // di) for di in d], [n * lcm] * len(d)
    raise DataError(f"unknown estimator: {estimator!r}")


def _ratio(den_sums: list[int], num_sums: list[list[int]], a: list[int], b: list[int]) -> list[float]:
    """The correctly rounded estimate of each column from its per-degree integer sums.

    ``den_sums[k]`` sums the multiplicities of the observations of degree
    k and ``num_sums[c][k]`` those with z = 1 in column c; ``a`` and ``b``
    are ``_degree_terms``' terms of the same degrees, in the same order.
    Degrees no observation has may be left out of all four lists. Both
    sums are exact Python ints, so the int division rounds their ratio
    once; the ratio, and so the float, does not depend on which common
    multiple of the degrees the terms were put over.
    """
    den = sum(map(mul, den_sums, b))
    return [sum(map(mul, col, a)) / den for col in num_sums]


def _cell_layout(
    degree: np.ndarray, columns, estimator: str, totals: PopulationTotals | None = None
) -> tuple[np.ndarray, list[int], list[int]]:
    """(keys, a, b): the cell keys of several z columns over some observations, and ``_degree_terms``' a, b.

    Observation i's key in column c is 2 * (c * len(a) + k) + z, with k the
    rank of its degree among the distinct degrees and z its value in c.
    """
    inverse, a, b = _degree_terms(degree, estimator, totals)
    z = np.array([np.asarray(col) == 1.0 for col in columns], dtype=np.int64).reshape(-1, inverse.size)
    return 2 * (len(a) * np.arange(len(z))[:, None] + inverse) + z, a, b


def _cell_estimates(keys: np.ndarray, multiplicity, a: list[int], b: list[int]) -> list[float]:
    """Correctly rounded estimates of every column from a ``_cell_layout``, or from columns of its keys.

    ``multiplicity`` is one integer for every key, or one per key in C
    order. The denominator sums both cells of each degree in column 0.
    """
    if not len(keys):
        return []
    sums = np.zeros(len(keys) * len(a) * 2, dtype=np.int64)
    np.add.at(sums, keys.ravel(), multiplicity)
    cells = sums.reshape(len(keys), len(a), 2)
    return _ratio(cells[0].sum(1).tolist(), cells[:, :, 1].tolist(), a, b)


def _estimate(
    degree: np.ndarray, multiplicity, columns, estimator: str, totals: PopulationTotals | None = None
) -> list[float]:
    """Correctly rounded estimates of several z columns over observations of degree[i], multiplicity[i] (or one for all)."""
    if degree.size == 0:
        raise DataError("empty sample")
    keys, a, b = _cell_layout(degree, columns, estimator, totals)
    # flat: add.at's fast path needs that, and numpy 2.4 misreads a 1-D operand broadcast to 2-D keys
    return _cell_estimates(keys, np.broadcast_to(multiplicity, keys.shape).ravel(), a, b)


def sample_mean(ws: WeightedSample) -> float:
    """Multiplicity-weighted mean of z."""
    return _estimate(ws.degree, ws.multiplicity, [ws.z], "sample_mean")[0]


def ipw_estimate(ws: WeightedSample, totals: PopulationTotals) -> float:
    """Inverse-probability-weighted prevalence.

    Inclusion probability of a node is degree / total_degree; the
    population-size factor normalizes the weighted sum to target the
    population proportion.
    """
    return _estimate(ws.degree, ws.multiplicity, [ws.z], "ipw", totals)[0]


def vh_estimate(ws: WeightedSample) -> float:
    """Inverse-degree-weighted ratio estimate of prevalence.

    Computed in the cancelled ratio form (sum z/d) / (sum 1/d); the
    mean-degree factor of the usual estimated-weight formulation cancels.
    """
    return _estimate(ws.degree, ws.multiplicity, [ws.z], "vh")[0]
