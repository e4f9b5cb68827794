"""Population network and node attributes.

The population is an undirected simple graph over opaque string node ids.
Ids are mapped to dense 0-based indices in lexicographic id order, which
makes loading canonical: the same edge set produces a bit-identical graph
regardless of row order or edge orientation in the input file.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DataError
from .rng import RngStream

__all__ = [
    "PopulationGraph",
    "AttributeTable",
    "FixedDegree",
    "PowerLawDegree",
    "load_edge_list",
    "largest_connected_component",
    "load_attributes",
    "load_attributes_for",
    "generate_configuration_graph",
    "component_sizes",
    "load_summary",
]


@dataclass
class PopulationGraph:
    """Undirected simple graph in CSR form, immutable after construction.

    node_ids are sorted lexicographically; index i refers to node_ids[i].
    """

    node_ids: list[str]
    indptr: np.ndarray
    indices: np.ndarray
    duplicates_collapsed: int = 0

    def __post_init__(self):
        self.degree = np.diff(self.indptr).astype(np.int64)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_edges(self) -> int:
        return int(self.indices.shape[0]) // 2

    @property
    def total_degree(self) -> int:
        return int(self.indices.shape[0])

    @cached_property
    def _degree_cumsum(self) -> np.ndarray:
        """The float64 running sums of ``degree``, made once per graph (read-only).

        They are exact while the total degree is below 2**53.
        """
        sums = np.cumsum(self.degree, dtype=np.float64)
        sums.flags.writeable = False
        return sums

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PopulationGraph):
            return NotImplemented
        return (
            self.node_ids == other.node_ids
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )


@dataclass
class AttributeTable:
    """Per-node binary attribute columns, row-aligned to a graph's node order."""

    column_names: list[str]
    values: np.ndarray  # shape (n_nodes, n_columns), entries in {0, 1}

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.uint8)
        if vals.ndim != 2 or vals.shape[1] != len(self.column_names):
            raise DataError("attribute value matrix does not match column names")
        if not np.isin(vals, (0, 1)).all():
            raise DataError("attribute values must be 0 or 1")
        self.values = vals

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.column_names.index(name)
        except ValueError:
            raise DataError(f"unknown attribute column: {name!r} (has {self.column_names})") from None
        return self.values[:, j]


@contextmanager
def _open_text(path):
    """Open a UTF-8 input file and yield it, to be read line by line.

    No copy of the lines is kept: each is decoded as the caller reads it.
    A leading byte-order mark is dropped. A line ends at a ``\\n``, a
    ``\\r\\n`` or a lone ``\\r``. Bytes that do not decode and rows the csv
    module rejects are DataErrors, and an undecodable byte is named by its
    offset in the file.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as e:
            # line reading gives the byte's position within the chunk it
            # decoded; one decode of the whole file, its byte-order mark kept,
            # meets it at its file offset
            with open(path, "rb") as raw:
                try:
                    raw.read().decode("utf-8")
                except UnicodeDecodeError as whole:
                    e = whole
            raise DataError(f"{path}: {e}") from None
        except csv.Error as e:
            raise DataError(f"{path}: {e}") from None


def _csr(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group (src, dst) pairs of nodes 0..n-1 into CSR rows, each row ascending in dst."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    # the key src * n + dst orders pairs by (src, dst), and equal keys are
    # equal pairs, so sorting the keys alone gives the rows a stable sort gives
    keys = np.sort(src.astype(np.int64) * n + dst)
    return indptr, (keys % max(n, 1)).astype(dst.dtype)


def _gather_rows(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The CSR rows ``rows`` concatenated in the given order."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    offsets = np.arange(lengths.sum()) - np.repeat(ends - lengths, lengths)
    return indices[np.repeat(starts, lengths) + offsets]


def _from_keys(node_ids: list[str], keys: np.ndarray, duplicates: int) -> PopulationGraph:
    """Graph over sorted ``node_ids`` from the distinct keys ``a * n + b`` of its undirected edges {a, b}."""
    a, b = np.divmod(keys, max(len(node_ids), 1))
    a, b = a.astype(np.int32), b.astype(np.int32)
    indptr, indices = _csr(len(node_ids), np.concatenate([a, b]), np.concatenate([b, a]))
    return PopulationGraph(node_ids, indptr, indices, duplicates)


def load_edge_list(path) -> PopulationGraph:
    """Load an undirected edge list from a text or CSV file.

    One edge per line, two whitespace- or comma-separated ids; lines
    beginning with '#' are ignored. Duplicate rows and both orientations
    of an edge collapse to one undirected edge (collapsed count is kept on
    the returned graph). Self-loop rows are rejected.
    """
    ends: list[str] = []  # both ids of every edge row, in file order
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if len(parts) != 2 or "," in raw or parts[0][0] == "#" or parts[0] == parts[1]:
                # a blank, comment or comma-separated line, or a faulty one
                line = raw.strip()
                if not line or line[0] == "#":
                    continue
                if "," in line:
                    parts = [p for p in map(str.strip, line.split(",")) if p]
                if len(parts) != 2:
                    raise DataError(f"{path}:{lineno}: expected two node ids, got {len(parts)}")
                if parts[0] == parts[1]:
                    raise DataError(f"{path}:{lineno}: self-loop on node {parts[0]!r} rejected")
            ends += parts
    node_ids = sorted(set(ends))
    n = len(node_ids)
    index = dict(zip(node_ids, range(n)))
    ab = np.fromiter(map(index.__getitem__, ends), dtype=np.int64, count=len(ends)).reshape(-1, 2)
    keys = np.sort(ab.min(axis=1) * n + ab.max(axis=1))
    distinct = keys[np.diff(keys, prepend=-1) != 0]
    return _from_keys(node_ids, distinct, keys.size - distinct.size)


def _component_labels(g: PopulationGraph) -> tuple[np.ndarray, int]:
    """Component labels numbered in order of each component's smallest node."""
    # each node points at a node no larger than itself; every round hooks
    # the target across each edge under the smaller one and halves the
    # pointer paths, until both ends of every edge point at the same node,
    # which is then the smallest in their component
    src = np.repeat(np.arange(g.n_nodes), g.degree)
    root = np.arange(g.n_nodes)
    while True:
        a, b = root[src], root[g.indices]
        if np.array_equal(a, b):
            break
        np.minimum.at(root, a, b)
        root = root[root]
    smallest, labels = np.unique(root, return_inverse=True)
    return labels, int(smallest.size)


def component_sizes(g: PopulationGraph) -> list[int]:
    """Sizes of connected components, largest first."""
    if g.n_nodes == 0:
        return []
    labels, n_comp = _component_labels(g)
    counts = np.bincount(labels, minlength=n_comp)
    return sorted((int(c) for c in counts), reverse=True)


def _induced_subgraph(g: PopulationGraph, keep: np.ndarray) -> PopulationGraph:
    new_index = np.cumsum(keep) - 1  # increasing, so lexicographic id order holds
    src = np.repeat(np.arange(g.n_nodes), g.degree)
    both = keep[src] & keep[g.indices]
    indptr, indices = _csr(int(keep.sum()), new_index[src[both]], new_index[g.indices[both]].astype(np.int32))
    return PopulationGraph([g.node_ids[i] for i in np.flatnonzero(keep)], indptr, indices)


def largest_connected_component(g: PopulationGraph) -> PopulationGraph:
    """Induced subgraph on the largest component; node ids preserved.

    Ties are broken by the smallest contained node id (node order is
    lexicographic, so the component holding the smallest index wins).
    """
    if g.n_nodes == 0:
        return g
    labels, n_comp = _component_labels(g)
    counts = np.bincount(labels, minlength=n_comp)
    # labels are numbered by each component's smallest node, so argmax picks
    # the tied component containing the smallest node id
    best = int(np.argmax(counts))
    keep = labels == best
    if keep.all():
        return g
    return _induced_subgraph(g, keep)


def _raise_first_bad_row(path, columns: list[str]):
    """Read the attribute file again and raise its first faulty row's error, naming the line the row starts on."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader)  # the header
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if row and len(row) != len(columns) + 1:
                raise DataError(f"{path}:{lineno}: expected {len(columns) + 1} fields, got {len(row)}")
            for name, cell in zip(columns, row[1:]):
                if cell.strip() not in ("0", "1"):
                    raise DataError(f"{path}:{lineno}: column {name!r} has non-binary value {cell.strip()!r}")


def _attribute_rows(path) -> tuple[list[str], list[str], np.ndarray]:
    """(column names, row ids, uint8 values) of a binary attribute CSV, rows in file order.

    The file must have a header whose first column is "id", followed by
    distinct, non-empty column names; every other cell must be 0 or 1,
    padding aside. Empty rows are skipped.
    """
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty attribute file") from None
        if not header or header[0].strip() != "id":
            raise DataError(f"{path}: first CSV column must be 'id'")
        columns = [c.strip() for c in header[1:]]
        if not columns:
            raise DataError(f"{path}: no attribute columns")
        if "" in columns:
            raise DataError(f"{path}: header column {columns.index('') + 2} has an empty name")
        if len(set(columns)) < len(columns):
            name = next(c for j, c in enumerate(columns) if c in columns[:j])
            raise DataError(f"{path}: attribute column {name!r} appears more than once in the header")
        records: list[list[str]] = []
        failure = None
        try:
            records.extend(reader)  # keeps the rows read before a failing one
        except (UnicodeDecodeError, csv.Error) as e:
            failure = e
        rows = [r for r in records if r]
        width = len(columns) + 1
        cells = list(chain.from_iterable(rows))
        ids = cells[::width]
        del cells[::width]
        # the distinct cell strings are few: check each once, and only on a
        # fault read the file again for the message
        stripped = {c: c.strip() for c in set(cells)}
        if not {width}.issuperset(map(len, rows)) or not {"0", "1"}.issuperset(stripped.values()):
            _raise_first_bad_row(path, columns)
        if failure is not None:
            raise failure
    value = {c: int(s) for c, s in stripped.items()}
    values = np.fromiter(map(value.__getitem__, cells), dtype=np.uint8, count=len(cells))
    return columns, [i.strip() for i in ids], values.reshape(len(rows), len(columns))


def load_attributes_for(path, ids) -> AttributeTable:
    """Load a binary attribute CSV aligned to ``ids``, one table row per id.

    Ids may repeat, as a forest's entries do when a node is recruited more
    than once. A repeated id in the file takes its last row, and rows for
    ids not asked for are ignored; every id must have a row. Missing ids
    are named once each, the first 20 in id order.
    """
    columns, row_ids, values = _attribute_rows(path)
    last = dict(zip(row_ids, range(len(row_ids))))
    row = np.array([last.get(i, -1) for i in ids], dtype=np.int64)
    if (row < 0).any():
        missing = sorted({i for i in ids if i not in last})
        suffix = f" (+{len(missing) - 20} more)" if len(missing) > 20 else ""
        raise DataError(f"{path}: nodes missing from attribute file: {missing[:20]}{suffix}")
    return AttributeTable(columns, values[row])


def load_attributes(path, g: PopulationGraph) -> AttributeTable:
    """Load a binary attribute CSV aligned to the graph's nodes: :func:`load_attributes_for` of ``g.node_ids``.

    A graph restricted to its largest component typically covers fewer
    nodes than the attribute file.
    """
    return load_attributes_for(path, g.node_ids)


@dataclass(frozen=True)
class FixedDegree:
    """Every node gets degree k."""

    k: int


@dataclass(frozen=True)
class PowerLawDegree:
    """Degrees drawn i.i.d. from P(d) proportional to d**-alpha on [d_min, d_max]."""

    alpha: float
    d_min: int
    d_max: int


def _draw_degree_sequence(n_nodes: int, law, rng: RngStream) -> np.ndarray:
    if isinstance(law, FixedDegree):
        if law.k < 1 or law.k >= n_nodes:
            raise DataError(f"fixed degree k={law.k} infeasible for {n_nodes} nodes")
        if (n_nodes * law.k) % 2 != 0:
            raise DataError(f"degree sum {n_nodes * law.k} is odd; no simple graph exists")
        return np.full(n_nodes, law.k, dtype=np.int64)
    if isinstance(law, PowerLawDegree):
        if not (1 <= law.d_min <= law.d_max < n_nodes):
            raise DataError("power-law degree bounds infeasible")
        support = np.arange(law.d_min, law.d_max + 1, dtype=np.float64)
        pmf = support**-law.alpha
        pmf /= pmf.sum()
        cdf = np.cumsum(pmf)
        deg = law.d_min + np.searchsorted(cdf, rng.random(n_nodes), side="right")
        deg = np.minimum(deg, law.d_max).astype(np.int64)
        # parity fix: bump one node up (or down at the cap) so stubs pair off
        if int(deg.sum()) % 2 != 0:
            i = int(rng.integers(n_nodes))
            deg[i] += 1 if deg[i] < law.d_max else -1
        return deg
    raise DataError(f"unknown degree law: {law!r}")


def _is_graphical(degrees: np.ndarray) -> bool:
    """Erdős–Gallai: whether some simple graph has this degree sequence.

    With d sorted in descending order, the sum must be even and, for every
    k = 1..n, sum(d[:k]) <= k(k - 1) + sum(min(d[k:], k)). The entries of
    d at or above k are its first j_k, so the right-hand tail is k for
    each of d[k:j_k] plus the plain sum of d[max(j_k, k):].
    """
    ascending = np.sort(degrees)
    n = ascending.size
    k = np.arange(1, n + 1, dtype=np.int64)
    prefix = np.cumsum(ascending[::-1])
    j = n - np.searchsorted(ascending, k, side="left")
    tail = k * np.maximum(j - k, 0) + prefix[-1] - np.r_[0, prefix][np.maximum(j, k)]
    return int(prefix[-1]) % 2 == 0 and bool(np.all(prefix <= k * (k - 1) + tail))


_PAIRING_ATTEMPTS = 100  # full restarts of the stub pairing before giving up


def generate_configuration_graph(n_nodes: int, degree_law, rng: RngStream) -> PopulationGraph:
    """Simple undirected graph via configuration-model stub pairing.

    Self-loops and multi-edges are rejected by reshuffling the clashing
    stubs; a full restart happens when the clash pool stops shrinking. A
    drawn degree sequence that no simple graph realizes is rejected before
    any pairing.
    Deterministic given ``rng``. Node ids are zero-padded decimal strings
    so lexicographic and numeric order coincide.
    """
    if n_nodes < 2:
        raise DataError("need at least 2 nodes")
    degrees = _draw_degree_sequence(n_nodes, degree_law, rng)
    if not _is_graphical(degrees):
        raise DataError(f"degree sequence not simple-graph realizable: {sorted(degrees.tolist(), reverse=True)[:20]}")
    width = len(str(n_nodes - 1))
    ids = [str(i).zfill(width) for i in range(n_nodes)]

    for _ in range(_PAIRING_ATTEMPTS):
        edges: set[int] = set()  # accepted edges {a, b}, a < b, by their key a * n_nodes + b
        stubs = np.repeat(np.arange(n_nodes, dtype=np.int64), degrees)
        rounds_left = 10_000
        while stubs.size and rounds_left:
            rounds_left -= 1
            rng.shuffle(stubs)
            leftover: list[int] = []
            pool = stubs.tolist()
            for a, b in zip(pool[0::2], pool[1::2]):
                if a > b:
                    a, b = b, a
                key = a * n_nodes + b
                if a != b and key not in edges:
                    edges.add(key)
                else:
                    leftover += (a, b)
            if len(leftover) == stubs.size and edges:
                # clashing stubs cannot resolve among themselves (e.g. all
                # from one hub): dissolve random accepted edges back into
                # the pool so the next shuffle can recombine them
                dissolve = min(len(edges), max(2, len(leftover)))
                edge_list = sorted(edges)  # the order of the pairs (a, b)
                for j in rng.choice(len(edge_list), size=dissolve, replace=False):
                    key = edge_list[int(j)]
                    edges.discard(key)
                    leftover.extend(divmod(key, n_nodes))
            stubs = np.asarray(leftover, dtype=np.int64)
        if stubs.size == 0:
            return _from_keys(ids, np.fromiter(edges, dtype=np.int64, count=len(edges)), 0)
    raise DataError(f"configuration model failed to pair the stubs in {_PAIRING_ATTEMPTS} attempts")


def load_summary(g: PopulationGraph) -> dict:
    """JSON-ready summary of a loaded graph, including the id/index mapping."""
    return {
        "n_nodes": g.n_nodes,
        "n_edges": g.n_edges,
        "duplicates_collapsed": g.duplicates_collapsed,
        "component_sizes": component_sizes(g),
        "node_ids": list(g.node_ids),
    }
