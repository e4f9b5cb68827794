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

Recruitment proceeds first-in-first-out, giving breadth-first wave growth:
take the next queued entry, draw its recruit count, draw its recruits,
append them to the queue. Seeds and reseeds are drawn successively
proportional to degree.

The loop makes exactly the draws of a loop that calls
``Generator.random()`` once per recruit count and seed and
``Generator.integers(0, n)`` once per recruit: a seed gives the same
forest, and leaves the generator in the same state, as that loop did.
It reads them from the bit generator's raw words, drawn ahead in bulk and
decoded with numpy's algorithms (see ``_Tape``), so a draw costs a list
lookup and a few integer operations instead of a method call; the
recruit count of every word is looked up once, in one ``searchsorted``.
Afterwards the bit generator is rewound to just past the words read, so
the generator must not be shared with another thread during the call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BudgetError, DataError
from .estimators import _as_positive_ints
from .graph import PopulationGraph, _csr, _gather_rows, _open_text
from .rng import RngStream

__all__ = [
    "RdsDesign",
    "RecruitmentForest",
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
        for k, p in enumerate(pmf):
            if p < 0:
                raise DataError(f"recruit_count_pmf entries must be non-negative, got {p!r} for {k} recruits")
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


@dataclass(init=False, eq=False)
class RecruitmentForest:
    """Recruitment trees in entry order, stored as their links: seeds have parent -1.

    ``node_index`` holds graph indices for simulated forests and -1 for
    forests loaded from external files (which stand alone on their ids
    and reported degrees). ``wave`` and ``seed_index`` are derived from the
    links. The constructor takes keywords only; ``seed_index`` and
    ``wave``, if given, must agree with the links and are not stored.
    """

    node_id: list[str]
    node_index: np.ndarray  # int64, -1 when not tied to a graph
    parent: np.ndarray  # int64 entry index, -1 for seeds
    degree: np.ndarray  # int64 reported degree
    n_reseeds: int = 0
    n_truncated: int = 0

    def __init__(
        self, *, node_id, node_index, parent, degree, n_reseeds=0, n_truncated=0, seed_index=None, wave=None
    ):
        self.node_id = node_id
        self.node_index = np.asarray(node_index, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.degree = _as_positive_ints(degree, "degree")
        self.n_reseeds, self.n_truncated = n_reseeds, n_truncated
        self._children = self._bfs = self._groups = None  # cached walks of the links
        given = [None if c is None else np.asarray(c, dtype=np.int64) for c in (seed_index, wave)]
        n = len(node_id)
        if any(a.shape != (n,) for a in (self.node_index, self.parent, self.degree, *given) if a is not None):
            raise DataError("forest arrays must all have one row per entry")
        if seed_index is None and wave is None:
            return
        # one pass, in any entry order: a seed has wave 0 and its rank among the seeds, any
        # other entry its recruiter's seed index and wave plus one; by induction up each
        # recruiter chain, columns that pass are the ones the links derive
        seed_index, wave = (None if a is None else a.tolist() for a in given)
        seeds = 0
        for i, p in enumerate(self.parent.tolist()):
            if p < 0:
                bad = (seed_index and seed_index[i] != seeds) or (wave and wave[i])
                seeds += 1
            else:
                bad = p >= n or (seed_index and seed_index[i] != seed_index[p])
                bad = bad or (wave and wave[i] != wave[p] + 1)
            if bad:
                raise DataError(f"seed_index or wave of entry {i} disagrees with the recruiter links")

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

    def _breadth_first(self) -> tuple[np.ndarray, ...]:
        """(entries in breadth-first order, the depth of each; per entry, its wave and seed index)."""
        if self._bfs is None:
            indptr, children = self.children_csr()
            waves = [self.seed_entries()]
            wave, root = np.zeros(self.n, dtype=np.int64), np.empty(self.n, dtype=np.int64)
            root[waves[0]] = np.arange(waves[0].size)
            while waves[-1].size:
                front = _gather_rows(indptr, children, waves[-1])
                wave[front], root[front] = len(waves), root[self.parent[front]]
                waves.append(front)
            order = np.concatenate(waves)
            if order.size != self.n:
                raise DataError("forest has entries unreachable from any seed")
            self._bfs = (order, wave[order], wave, root)
            for a in self._bfs:
                a.flags.writeable = False
        return self._bfs

    @property
    def wave(self) -> np.ndarray:
        """The BFS depth of each entry: 0 for seeds, one more than the recruiter's otherwise."""
        return self._breadth_first()[2]

    @property
    def seed_index(self) -> np.ndarray:
        """The entry-order rank, among the seeds, of each entry's seed."""
        return self._breadth_first()[3]

    def bfs_order(self) -> np.ndarray:
        """Entries in breadth-first order from the seeds (parents first)."""
        return self._breadth_first()[0]

    def recruiter_groups(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Recruiters grouped by (BFS depth, recruit count k), shallow waves first.

        One ``(recruiters, recruits)`` pair per group: the group's m
        recruiters in BFS order, and their recruits as an (m, k) array whose
        row j lists recruiter j's k recruits in entry order. Within a wave
        the groups go by ascending k.
        """
        if self._groups is None:
            order, depth = self._breadth_first()[:2]
            indptr, children = self.children_csr()
            k = self.out_degree()[order]
            keep = k > 0
            order, depth, k = order[keep], depth[keep], k[keep]
            by = np.lexsort((k, depth))  # stable: BFS order within a group
            order, depth, k = order[by], depth[by], k[by]
            starts = np.flatnonzero((np.diff(depth, prepend=-1) != 0) | (np.diff(k, prepend=0) != 0)).tolist()
            self._groups = []
            for a, b in zip(starts, starts[1:] + [order.size]):
                u = order[a:b]
                self._groups.append((u, children[indptr[u][:, None] + np.arange(k[a])]))
        return self._groups

    def recruiter_entries(self) -> np.ndarray:
        """Entry indices with at least one recruit, in recruitment order."""
        return np.flatnonzero(self.out_degree() >= 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecruitmentForest):
            return NotImplemented
        return (
            self.node_id == other.node_id
            and np.array_equal(self.parent, other.parent)
            and np.array_equal(self.degree, other.degree)
        )


class _Tape:
    """The bit generator's raw words, drawn ahead in bulk and read as the Generator's draws.

    ``Generator.random()`` is the bit generator's ``next_double``, and
    ``Generator.integers(0, n)`` is Lemire's multiply-shift, with his
    rejection step, on ``next_uint32`` words (no word for n = 1). numpy's
    64-bit bit generators (PCG64, PCG64DXSM, Philox, SFC64) make a double
    of one raw word x as (x >> 11) * 2**-53, and serve 32-bit words as the
    low and then the high half of one raw word, the high half waiting in a
    buffer that doubles leave alone. Other bit generators are rejected.

    Read at position i, a double is ``double[i]`` and gives the recruit
    count ``counts[i]``; a 32-bit word is ``lo[i]``, its buffered partner
    ``hi[i]``. ``rewind`` puts the bit generator where the Generator
    methods would have left it after the draws read.
    """

    def __init__(self, bg, cum: np.ndarray, size: int):
        self.bg = bg
        self.start = bg.state
        if "has_uint32" not in self.start:
            raise DataError(f"unsupported bit generator: {type(bg).__name__}")
        self.has = bool(self.start["has_uint32"])
        self.half = self.start["uinteger"]
        self.cum = cum
        self.chunk = size
        self.raw = bg.random_raw(size)
        self._decode()

    def _decode(self) -> None:
        raw = self.raw
        self.double = (raw >> 11) * 2.0**-53
        self.lo, self.hi = (raw & 0xFFFFFFFF).tolist(), (raw >> 32).tolist()
        self.counts = self.cum.searchsorted(self.double, side="right").tolist()

    def more(self) -> tuple[list[int], list[int], list[int]]:
        """Draw another chunk; returns the longer (counts, lo, hi)."""
        self.raw = np.concatenate([self.raw, self.bg.random_raw(self.chunk)])
        self._decode()
        return self.counts, self.lo, self.hi

    def rewind(self, read: int, has: bool, half: int) -> None:
        """Leave the bit generator after ``read`` raw words, with the 32-bit buffer (has, half)."""
        self.bg.state = self.start
        self.bg.random_raw(read)
        state = self.bg.state
        state["has_uint32"], state["uinteger"] = int(has), half
        self.bg.state = state


def _tape_size(design: RdsDesign) -> int:
    """Raw 64-bit words that a forest is expected to read, with a fifth to spare.

    Seeds, reseeds and recruiters read a double each, and two 32-bit words
    share a raw word.
    """
    mean_count = sum(k * p for k, p in enumerate(design.recruit_count_pmf))
    return int(1.2 * design.target_n * (1 + mean_count / 2)) + 64


def _pps_draw_indices(candidates: np.ndarray, weights: np.ndarray, us) -> list[int]:
    """Successive draws without replacement with probability proportional to weight.

    Draw i takes the uniform ``us[i]`` on [0, 1), and the drawn candidate
    swaps places with the last remaining one. The weights are integers, so
    their running sums are exact in float64 and are updated in place.
    """
    cums = np.cumsum(weights, dtype=np.float64)
    m = cums.size
    total = int(cums[-1]) if m else 0
    moved: dict[int, int] = {}  # position -> the candidate's first position, once swapped
    picked: list[int] = []
    for u in us:
        # the sums past the remaining candidates are inf, so never <= u * total
        j = min(int(cums.searchsorted(u * total, side="right")), m - 1)
        a, b = moved.get(j, j), moved.get(m - 1, m - 1)
        picked.append(int(candidates[a]))
        wa, wb = int(weights[a]), int(weights[b])
        cums[j : m - 1] += wb - wa
        cums[m - 1] = math.inf
        moved[j] = b
        total -= wa
        m -= 1
    return picked


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
    s = design.n_seeds
    # u < cum[k] picks count k; the last bound is open, so that float
    # round-off below a total of 1 also gives max_coupons
    cum = np.array(list(accumulate(design.recruit_count_pmf)))
    cum[-1] = math.inf
    indptr, indices = memoryview(g.indptr), memoryview(g.indices)
    tape = _Tape(rng.bit_generator, cum, _tape_size(design))
    counts, lo32, hi32 = tape.counts, tape.lo, tape.hi
    has, half = tape.has, tape.half
    # an entry reads a double and at most max_coupons 32-bit words, bar rejections
    margin = design.max_coupons + 2
    limit = len(lo32) - margin

    w = s
    try:
        node = _pps_draw_indices(np.arange(g.n_nodes), g.degree, tape.double[:s])
        parent = [-1] * s
        sampled = bytearray(g.n_nodes)
        for v in node:
            sampled[v] = 1
        n_reseeds = 0
        n_truncated = 0

        # entries are recruited first-in-first-out, so the queue is always the
        # consecutive entries head..count-1
        head, count = 0, s
        while count < target:
            if w > limit:
                counts, lo32, hi32 = tape.more()
                limit = len(lo32) - margin
            if head == count:
                if not design.reseed_on_death:
                    raise BudgetError(
                        f"sample starved: all chains dead at {count} of {target} entries"
                    )
                fresh = np.flatnonzero(~np.frombuffer(sampled, dtype=bool)) if wor else np.arange(g.n_nodes)
                v = _pps_draw_indices(fresh, g.degree[fresh], tape.double[w : w + 1])[0]
                w += 1
                node.append(v)
                parent.append(-1)
                sampled[v] = 1
                count += 1
                n_reseeds += 1
                continue
            k = counts[w]
            w += 1
            entry = head
            head += 1
            if not k:
                continue
            u = node[entry]
            lo = indptr[u]
            if wor:
                # partial Fisher-Yates: uniform without replacement in draw order
                avail = [v for v in indices[lo : indptr[u + 1]] if not sampled[v]]
                n = len(avail)
                k = min(k, n)
            else:
                n = indptr[u + 1] - lo
            room = target - count
            for i in range(k):
                j = 0
                if n > 1:
                    # Lemire: j = m >> 32 for m = word * n, unless the low
                    # half of m falls below (2**32 - n) % n
                    while True:
                        if has:
                            r, has = half, False
                        else:
                            r, half, has = lo32[w], hi32[w], True
                            w += 1
                        m = r * n
                        if (m & 0xFFFFFFFF) >= n or (m & 0xFFFFFFFF) >= (0x100000000 - n) % n:
                            break
                        counts, lo32, hi32 = tape.more()
                        limit = len(lo32) - margin
                    j = m >> 32
                if wor:
                    n -= 1
                    v = avail[j]
                    avail[j] = avail[n]
                else:
                    v = indices[lo + j]
                if i < room:
                    node.append(v)
                    parent.append(entry)
                    sampled[v] = 1
            if k > room:
                n_truncated += k - room
                k = room
            count += k
    finally:
        tape.rewind(w, has, half)

    arr = np.asarray(node, dtype=np.int64)
    return RecruitmentForest(
        node_id=list(map(g.node_ids.__getitem__, node)),
        node_index=arr,
        parent=np.asarray(parent, dtype=np.int64),
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
        ids = forest.node_id
        columns = (forest.seed_index, forest.wave, forest.parent, forest.degree)
        rows = zip(ids, *(c.tolist() for c in columns))
        writer.writerows([i, s, w, ids[p] if p >= 0 else "", d] for i, s, w, p, d in rows)


def read_forest_csv(path) -> RecruitmentForest:
    """Read a recruitment forest from CSV.

    Accepts the full five-column format written by :func:`write_forest_csv`
    as well as the minimal external format (id, recruiter, degree). The
    seed_index and wave columns are ignored: the forest derives them from
    the recruiter links. Recruiter references resolve to the latest earlier
    row with that id, so files must list recruiters before their recruits.
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
    parent = [-1] * n
    for i, rid in enumerate(recruiter_raw):
        if rid:
            if rid not in last_entry_of:
                raise DataError(
                    f"{path}: row {i + 2}: recruiter {rid!r} does not appear earlier in the file"
                )
            parent[i] = last_entry_of[rid]
        last_entry_of[ids[i]] = i
    if "" not in recruiter_raw:
        raise DataError(f"{path}: forest has no seeds (no row with empty recruiter)")
    return RecruitmentForest(
        node_id=ids,
        node_index=np.full(n, -1, dtype=np.int64),
        parent=parent,
        degree=np.asarray(degrees, dtype=np.int64),
    )
