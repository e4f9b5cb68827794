"""RDS recruitment simulation on a population graph.

Two regimes:

* ``without_replacement`` -- the realistic coupon process: each recruiter
  draws a recruit count from the design pmf and recruits that many
  never-sampled neighbours uniformly without replacement.
* ``with_replacement_walk`` -- the idealized random-walk process: each
  recruit is an independent uniform draw from the recruiter's neighbours,
  repeats allowed, so every entry is marginally stationary (visit
  probability proportional to degree) when seeds are drawn proportional
  to degree.

Recruitment proceeds first-in-first-out, giving breadth-first wave growth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, DataError
from .estimators import _as_degrees
from .graph import PopulationGraph, _csr, _gather_rows, _open_text
from .rng import RngStream

__all__ = [
    "RdsDesign",
    "RecruitmentForest",
    "draw_seeds_pps",
    "simulate_rds",
    "write_forest_csv",
    "read_forest_csv",
]

WITHOUT_REPLACEMENT = "without_replacement"
WITH_REPLACEMENT_WALK = "with_replacement_walk"


@dataclass(frozen=True)
class RdsDesign:
    """Recruitment design: seeds, coupons, recruit-count pmf, target size."""

    n_seeds: int
    max_coupons: int
    recruit_count_pmf: tuple[float, ...]
    target_n: int
    regime: str = WITHOUT_REPLACEMENT
    reseed_on_death: bool = True

    def __post_init__(self):
        if self.regime not in (WITHOUT_REPLACEMENT, WITH_REPLACEMENT_WALK):
            raise DataError(f"unknown regime: {self.regime!r}")
        pmf = tuple(float(p) for p in self.recruit_count_pmf)
        if len(pmf) != self.max_coupons + 1:
            raise DataError(
                f"recruit_count_pmf must have max_coupons+1={self.max_coupons + 1} entries, got {len(pmf)}"
            )
        if any(p < 0 for p in pmf):
            raise DataError("recruit_count_pmf entries must be non-negative")
        if abs(sum(pmf) - 1.0) > 1e-12:
            raise DataError(f"recruit_count_pmf must sum to 1 (got {sum(pmf)!r})")
        if not (1 <= self.n_seeds <= self.target_n):
            raise DataError("need 1 <= n_seeds <= target_n")
        object.__setattr__(self, "recruit_count_pmf", pmf)

    def validate_for(self, g: PopulationGraph) -> None:
        if self.regime == WITHOUT_REPLACEMENT and self.target_n > g.n_nodes:
            raise DataError(
                f"target_n={self.target_n} exceeds population size {g.n_nodes} (without replacement)"
            )
        if self.n_seeds > g.n_nodes:
            raise DataError(f"n_seeds={self.n_seeds} exceeds population size {g.n_nodes}")
        if g.n_nodes and int(g.degree.min()) < 1:
            raise DataError("all degrees must be >= 1 for degree-proportional seeding")


@dataclass
class RecruitmentForest:
    """Recruitment trees in entry order: seeds have parent -1 and wave 0.

    ``node_index`` holds graph indices for simulated forests and -1 for
    forests loaded from external files (which stand alone on their ids
    and reported degrees).
    """

    node_id: list[str]
    node_index: np.ndarray  # int64, -1 when not tied to a graph
    seed_index: np.ndarray  # int64
    wave: np.ndarray  # int64
    parent: np.ndarray  # int64 entry index, -1 for seeds
    degree: np.ndarray  # int64 reported degree
    n_reseeds: int = 0
    n_truncated: int = 0
    _children: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)
    _bfs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        for name in ("node_index", "seed_index", "wave", "parent"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        self.degree = _as_degrees(self.degree)
        n = len(self.node_id)
        if any(arr.shape != (n,) for arr in (self.node_index, self.seed_index, self.wave, self.parent, self.degree)):
            raise DataError("forest arrays must all have one row per entry")

    @property
    def n(self) -> int:
        return len(self.node_id)

    def seed_entries(self) -> np.ndarray:
        return np.flatnonzero(self.parent < 0)

    def children_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, child_entries) with children listed in entry order."""
        if self._children is None:
            nonseed = np.flatnonzero(self.parent >= 0)
            self._children = _csr(self.n, self.parent[nonseed], nonseed)
        return self._children

    def out_degree(self) -> np.ndarray:
        indptr, _ = self.children_csr()
        return np.diff(indptr)

    def bfs_order(self) -> np.ndarray:
        """Entries in breadth-first order from the seeds (parents first)."""
        if self._bfs is None:
            indptr, children = self.children_csr()
            waves = [self.seed_entries()]
            while waves[-1].size:
                waves.append(_gather_rows(indptr, children, waves[-1]))
            order = np.concatenate(waves)
            if order.size != self.n:
                raise DataError("forest has entries unreachable from any seed")
            self._bfs = order
        return self._bfs

    def recruiter_entries(self) -> np.ndarray:
        """Entry indices with at least one recruit, in recruitment order."""
        return np.flatnonzero(self.out_degree() >= 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecruitmentForest):
            return NotImplemented
        return (
            self.node_id == other.node_id
            and np.array_equal(self.seed_index, other.seed_index)
            and np.array_equal(self.wave, other.wave)
            and np.array_equal(self.parent, other.parent)
            and np.array_equal(self.degree, other.degree)
        )


def _pps_draw_indices(candidates: np.ndarray, weights: np.ndarray, s: int, rng: RngStream) -> list[int]:
    """Successive draws without replacement with probability proportional to weight."""
    cand = np.array(candidates, dtype=np.int64)
    w = np.array(weights, dtype=np.float64)
    picked: list[int] = []
    m = cand.size
    for _ in range(s):
        cums = np.cumsum(w[:m])
        u = rng.random() * cums[-1]
        j = min(int(np.searchsorted(cums, u, side="right")), m - 1)
        picked.append(int(cand[j]))
        cand[j], cand[m - 1] = cand[m - 1], cand[j]
        w[j], w[m - 1] = w[m - 1], w[j]
        m -= 1
    return picked


def draw_seeds_pps(g: PopulationGraph, s: int, rng: RngStream) -> list[str]:
    """Draw s distinct seeds, successively, with probability proportional to degree."""
    if s > g.n_nodes:
        raise DataError(f"cannot draw {s} seeds from {g.n_nodes} nodes")
    if g.n_nodes and int(g.degree.min()) < 1:
        raise DataError("all degrees must be >= 1 for degree-proportional seeding")
    idx = _pps_draw_indices(np.arange(g.n_nodes), g.degree.astype(float), s, rng)
    return [g.node_ids[i] for i in idx]


def _draw_count(pmf: tuple[float, ...], rng: RngStream) -> int:
    u = rng.random()
    acc = 0.0
    for k, p in enumerate(pmf):
        acc += p
        if u < acc:
            return k
    return len(pmf) - 1


def simulate_rds(g: PopulationGraph, design: RdsDesign, rng: RngStream) -> RecruitmentForest:
    """Simulate one RDS sample of exactly ``design.target_n`` entries.

    The recruit count is drawn from the pmf first and then capped by the
    number of never-sampled neighbours (without-replacement regime only).
    When every chain dies early, a fresh seed is drawn proportional to
    degree (from never-sampled nodes without replacement; from all nodes
    in the walk regime, preserving the stationary start) unless
    ``reseed_on_death`` is off, in which case the sample is starved.
    """
    design.validate_for(g)
    wor = design.regime == WITHOUT_REPLACEMENT
    target = design.target_n
    pmf = design.recruit_count_pmf

    node_idx: list[int] = []
    seed_of: list[int] = []
    wave_of: list[int] = []
    parent_of: list[int] = []
    sampled = np.zeros(g.n_nodes, dtype=bool)
    count = 0

    seeds = _pps_draw_indices(np.arange(g.n_nodes), g.degree.astype(float), design.n_seeds, rng)
    n_truncated = 0
    for si, node in enumerate(seeds):
        node_idx.append(node)
        seed_of.append(si)
        wave_of.append(0)
        parent_of.append(-1)
        sampled[node] = True
        count += 1
    next_seed_index = design.n_seeds
    n_reseeds = 0

    # entries are recruited first-in-first-out, so the queue is always the
    # consecutive entries head..count-1
    head = 0
    while count < target:
        if head == count:
            if not design.reseed_on_death:
                raise BudgetError(
                    f"sample starved: all chains dead at {count} of {target} entries"
                )
            if wor:
                fresh = np.flatnonzero(~sampled)
            else:
                fresh = np.arange(g.n_nodes)
            node = _pps_draw_indices(fresh, g.degree[fresh].astype(float), 1, rng)[0]
            node_idx.append(node)
            seed_of.append(next_seed_index)
            wave_of.append(0)
            parent_of.append(-1)
            sampled[node] = True
            count += 1
            next_seed_index += 1
            n_reseeds += 1
            continue
        entry = head
        head += 1
        k = _draw_count(pmf, rng)
        if k == 0:
            continue
        nbrs = g.neighbors(node_idx[entry])
        if wor:
            avail = nbrs[~sampled[nbrs]].tolist()
            take = min(k, len(avail))
            if take == 0:
                continue
            # partial Fisher-Yates: uniform without replacement in draw order
            picks = []
            last = len(avail) - 1
            for _ in range(take):
                j = int(rng.integers(0, last + 1))
                picks.append(avail[j])
                avail[j] = avail[last]
                last -= 1
        else:
            nn = nbrs.size
            picks = [int(nbrs[rng.integers(0, nn)]) for _ in range(k)]
        wv = wave_of[entry] + 1
        sq = seed_of[entry]
        for j, node in enumerate(picks):
            if count >= target:
                n_truncated += len(picks) - j
                break
            node_idx.append(node)
            seed_of.append(sq)
            wave_of.append(wv)
            parent_of.append(entry)
            sampled[node] = True
            count += 1

    arr = np.asarray(node_idx, dtype=np.int64)
    return RecruitmentForest(
        node_id=[g.node_ids[i] for i in node_idx],
        node_index=arr,
        seed_index=np.asarray(seed_of, dtype=np.int64),
        wave=np.asarray(wave_of, dtype=np.int64),
        parent=np.asarray(parent_of, dtype=np.int64),
        degree=g.degree[arr],
        n_reseeds=n_reseeds,
        n_truncated=n_truncated,
    )


FOREST_COLUMNS = ["id", "seed_index", "wave", "recruiter", "degree"]


def write_forest_csv(forest: RecruitmentForest, path) -> None:
    """Serialize in recruitment order; seeds leave the recruiter field empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FOREST_COLUMNS)
        for i in range(forest.n):
            p = int(forest.parent[i])
            writer.writerow(
                [
                    forest.node_id[i],
                    int(forest.seed_index[i]),
                    int(forest.wave[i]),
                    forest.node_id[p] if p >= 0 else "",
                    int(forest.degree[i]),
                ]
            )


def read_forest_csv(path) -> RecruitmentForest:
    """Read a recruitment forest from CSV.

    Accepts the full five-column format written by :func:`write_forest_csv`
    as well as the minimal external format (id, recruiter, degree); wave
    and seed_index are reconstructed from the recruiter links. Recruiter
    references resolve to the latest earlier row with that id, so files
    must list recruiters before their recruits.
    """
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty forest file") from None
        required = {"id", "recruiter", "degree"}
        if not required.issubset(header):
            raise DataError(f"{path}: forest CSV needs columns {sorted(required)}, got {header}")
        col = {name: header.index(name) for name in header}
        ids: list[str] = []
        recruiter_raw: list[str] = []
        degrees: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                deg = int(row[col["degree"]])
            except ValueError:
                raise DataError(f"{path}:{lineno}: degree must be an integer") from None
            if not 1 <= deg < 2**63:
                raise DataError(f"{path}:{lineno}: degree must be an integer in [1, 2**63 - 1]")
            ids.append(row[col["id"]].strip())
            recruiter_raw.append(row[col["recruiter"]].strip())
            degrees.append(deg)

    n = len(ids)
    last_entry_of: dict[str, int] = {}
    parent = np.full(n, -1, dtype=np.int64)
    wave = np.zeros(n, dtype=np.int64)
    seed_index = np.zeros(n, dtype=np.int64)
    next_seed = 0
    for i in range(n):
        rid = recruiter_raw[i]
        if rid == "":
            seed_index[i] = next_seed
            next_seed += 1
        else:
            if rid not in last_entry_of:
                raise DataError(
                    f"{path}: row {i + 2}: recruiter {rid!r} does not appear earlier in the file"
                )
            p = last_entry_of[rid]
            parent[i] = p
            wave[i] = wave[p] + 1
            seed_index[i] = seed_index[p]
        last_entry_of[ids[i]] = i
    if next_seed == 0:
        raise DataError(f"{path}: forest has no seeds (no row with empty recruiter)")
    return RecruitmentForest(
        node_id=ids,
        node_index=np.full(n, -1, dtype=np.int64),
        seed_index=seed_index,
        wave=wave,
        parent=parent,
        degree=np.asarray(degrees, dtype=np.int64),
    )
