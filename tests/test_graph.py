import csv
import hashlib
import re
import time
from collections import deque
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdsvar as rv
from rdsvar.errors import DataError
from rdsvar.graph import _component_labels, _csr, _is_graphical, component_sizes, load_attributes_for, load_summary
from rdsvar.rng import generator
from rdsvar.synth import _voter_smooth


def test_load_collapses_orientations_and_duplicates(tiny_edge_file):
    g = rv.load_edge_list(tiny_edge_file)
    assert g.node_ids == ["a", "b", "c"]
    assert g.n_edges == 2
    assert dict(zip(g.node_ids, g.degree.tolist())) == {"a": 1, "b": 2, "c": 1}
    assert g.duplicates_collapsed == 1


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    g = rv.load_edge_list(p)
    assert g.n_nodes == 0 and g.n_edges == 0


def test_load_comments_and_csv(tmp_path):
    p = tmp_path / "edges.csv"
    p.write_text("# header comment\n1,2\n2,3\n\n")
    g = rv.load_edge_list(p)
    assert g.n_nodes == 3 and g.n_edges == 2


def test_load_malformed_row_reports_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("a b\nc\n")
    with pytest.raises(DataError, match=":2:"):
        rv.load_edge_list(p)


def test_load_self_loop_reports_node(tmp_path):
    p = tmp_path / "loop.txt"
    p.write_text("a b\nx x\n")
    with pytest.raises(DataError, match="'x'"):
        rv.load_edge_list(p)


def test_degree_sum_is_twice_edges(tiny_edge_file):
    g = rv.load_edge_list(tiny_edge_file)
    assert int(g.degree.sum()) == 2 * g.n_edges == g.total_degree


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda t: t[0] != t[1]),
            min_size=1,
            max_size=20,
        )
    )
    return [(f"v{a}", f"v{b}") for a, b in pairs]


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists(), flips=st.lists(st.booleans(), min_size=20, max_size=20), seed=st.integers(0, 10**6))
def test_load_canonical_under_permutation_and_orientation(tmp_path_factory, edges, flips, seed):
    tmp = tmp_path_factory.mktemp("canon")
    p1 = tmp / "a.txt"
    p1.write_text("".join(f"{a} {b}\n" for a, b in edges))
    rng = np.random.default_rng(seed)
    shuffled = [edges[i] for i in rng.permutation(len(edges))]
    shuffled = [(b, a) if flips[i % len(flips)] else (a, b) for i, (a, b) in enumerate(shuffled)]
    p2 = tmp / "b.txt"
    p2.write_text("".join(f"{a} {b}\n" for a, b in shuffled))
    g1, g2 = rv.load_edge_list(p1), rv.load_edge_list(p2)
    assert g1 == g2  # bit-identical canonical form


def test_lcc_identity_when_connected(tiny_edge_file):
    g = rv.load_edge_list(tiny_edge_file)
    assert rv.largest_connected_component(g) == g


def test_lcc_picks_larger_component(tmp_path):
    p = tmp_path / "two.txt"
    p.write_text("a b\nb c\nx y\n")
    lcc = rv.largest_connected_component(rv.load_edge_list(p))
    assert lcc.node_ids == ["a", "b", "c"]


def test_lcc_tie_break_smallest_id(tmp_path):
    p = tmp_path / "tie.txt"
    p.write_text("m n\nb c\n")
    lcc = rv.largest_connected_component(rv.load_edge_list(p))
    assert lcc.node_ids == ["b", "c"]


def test_lcc_empty_graph(tmp_path):
    p = tmp_path / "e.txt"
    p.write_text("")
    g = rv.load_edge_list(p)
    assert rv.largest_connected_component(g).n_nodes == 0


def test_lcc_output_is_connected():
    rng = np.random.default_rng(5)
    g = rv.generate_configuration_graph(60, rv.PowerLawDegree(2.5, 1, 6), rng)
    lcc = rv.largest_connected_component(g)
    assert component_sizes(lcc) == [lcc.n_nodes]


def _reference_components(g) -> list[int]:
    """Breadth-first labels, numbered as the components are met in node order."""
    labels = [-1] * g.n_nodes
    n_comp = 0
    for start in range(g.n_nodes):
        if labels[start] >= 0:
            continue
        labels[start] = n_comp
        queue = deque([start])
        while queue:
            for v in g.neighbors(queue.popleft()):
                if labels[v] < 0:
                    labels[v] = n_comp
                    queue.append(int(v))
        n_comp += 1
    return labels


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(lambda t: t[0] != t[1]), min_size=1, max_size=60))
def test_csr_components_and_lcc_match_reference(tmp_path_factory, pairs):
    path = tmp_path_factory.mktemp("graph") / "edges.txt"
    path.write_text("".join(f"v{a} v{b}\n" for a, b in pairs))
    g = rv.load_edge_list(path)
    ids = sorted({f"v{x}" for pair in pairs for x in pair})
    nbrs = {nid: set() for nid in ids}
    for a, b in pairs:
        nbrs[f"v{a}"].add(f"v{b}")
        nbrs[f"v{b}"].add(f"v{a}")
    assert g.node_ids == ids and g.indices.dtype == np.int32
    assert [[g.node_ids[j] for j in g.neighbors(i)] for i in range(g.n_nodes)] == [sorted(nbrs[nid]) for nid in ids]
    labels = _reference_components(g)
    assert _component_labels(g)[0].tolist() == labels
    counts = np.bincount(labels)
    keep = [nid for nid, lab in zip(ids, labels) if lab == int(np.argmax(counts))]
    lcc = rv.largest_connected_component(g)
    assert lcc.node_ids == keep
    assert [[lcc.node_ids[j] for j in lcc.neighbors(i)] for i in range(lcc.n_nodes)] == [sorted(nbrs[nid]) for nid in keep]


def test_load_attributes_happy_path(tmp_path, tiny_edge_file):
    g = rv.load_edge_list(tiny_edge_file)
    p = tmp_path / "attr.csv"
    p.write_text("id,gender,homeless\na,1,0\nb,0,0\nc,1,1\n")
    t = rv.load_attributes(p, g)
    assert t.column_names == ["gender", "homeless"]
    assert t.column("gender").tolist() == [1, 0, 1]


def test_load_attributes_missing_node(tmp_path, tiny_edge_file):
    g = rv.load_edge_list(tiny_edge_file)
    p = tmp_path / "attr.csv"
    p.write_text("id,gender\na,1\nb,0\n")
    with pytest.raises(DataError, match="'c'"):
        rv.load_attributes(p, g)


def test_load_attributes_rejects_non_binary(tmp_path, tiny_edge_file):
    g = rv.load_edge_list(tiny_edge_file)
    p = tmp_path / "attr.csv"
    p.write_text("id,gender\na,1\nb,2\nc,0\n")
    with pytest.raises(DataError, match=r":3:.*'gender'"):
        rv.load_attributes(p, g)


def test_load_attributes_ignores_extra_rows(tmp_path, tiny_edge_file):
    g = rv.load_edge_list(tiny_edge_file)
    p = tmp_path / "attr.csv"
    p.write_text("id,x\na,1\nb,0\nc,1\nzz,1\n")
    assert rv.load_attributes(p, g).column("x").tolist() == [1, 0, 1]


def test_configuration_fixed_k3_n4_is_complete():
    g = rv.generate_configuration_graph(4, rv.FixedDegree(3), np.random.default_rng(0))
    assert g.n_edges == 6
    assert g.degree.tolist() == [3, 3, 3, 3]


def test_configuration_two_nodes_single_edge():
    g = rv.generate_configuration_graph(2, rv.FixedDegree(1), np.random.default_rng(1))
    assert g.n_edges == 1


def test_configuration_odd_degree_sum_rejected():
    with pytest.raises(DataError, match="odd"):
        rv.generate_configuration_graph(3, rv.FixedDegree(1), np.random.default_rng(0))


def test_configuration_unrealizable_sequence_rejected_at_once():
    # PowerLawDegree(2.2, 1, 3) on 4 nodes draws [1, 3, 1, 3] from this stream:
    # two degree-3 nodes need three neighbours each among the other three
    t0 = time.perf_counter()
    with pytest.raises(DataError, match="not simple-graph realizable"):
        rv.generate_configuration_graph(4, rv.PowerLawDegree(2.2, 1, 3), np.random.default_rng(1))
    assert time.perf_counter() - t0 < 1.0


def _erdos_gallai_loop(d):
    d = sorted(d, reverse=True)
    return sum(d) % 2 == 0 and all(
        sum(d[:k]) <= k * (k - 1) + sum(min(x, k) for x in d[k:]) for k in range(1, len(d) + 1)
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=14))
def test_erdos_gallai_matches_its_definition(degrees):
    assert _is_graphical(np.array(degrees, dtype=np.int64)) == _erdos_gallai_loop(degrees)


def test_configuration_power_law_degrees_in_bounds():
    rng = np.random.default_rng(7)
    g = rv.generate_configuration_graph(1000, rv.PowerLawDegree(2.5, 2, 50), rng)
    # direct histogram of the emitted graph's degrees
    hist = np.bincount(g.degree, minlength=51)
    assert hist[:2].sum() == 0
    assert int(g.degree.min()) >= 2 and int(g.degree.max()) <= 50
    assert int(g.degree.sum()) == 2 * g.n_edges
    # low degrees dominate under alpha=2.5
    assert hist[2] > hist[10] > hist[40]
    assert component_sizes(g)[0] > 900  # connectivity is reported, not asserted exactly


def test_configuration_deterministic_given_stream():
    g1 = rv.generate_configuration_graph(80, rv.PowerLawDegree(2.5, 2, 20), np.random.default_rng(3))
    g2 = rv.generate_configuration_graph(80, rv.PowerLawDegree(2.5, 2, 20), np.random.default_rng(3))
    assert g1 == g2


def test_load_summary_contents(tiny_edge_file):
    g = rv.load_edge_list(tiny_edge_file)
    s = load_summary(g)
    assert s["n_nodes"] == 3
    assert s["n_edges"] == 2
    assert s["duplicates_collapsed"] == 1
    assert s["component_sizes"] == [3]
    assert s["node_ids"] == ["a", "b", "c"]


def _voter_smooth_reference(g, z, rounds, rng):
    """One scalar draw per node per round, in node order."""
    z = z.copy()
    for _ in range(rounds):
        nxt = z.copy()
        for i in range(g.n_nodes):
            nbrs = g.neighbors(i)
            nxt[i] = z[nbrs[rng.integers(0, nbrs.size)]]
        z = nxt
    return z


def test_voter_smooth_matches_scalar_loop():
    for seed in range(5):
        g = rv.synthetic_population(300, generator(seed, 0), d_max=20)
        z = (np.random.default_rng(seed).random(g.n_nodes) < 0.3).astype(np.uint8)
        fast, slow = generator(seed, 1), generator(seed, 1)
        assert np.array_equal(_voter_smooth(g, z, 3, fast), _voter_smooth_reference(g, z, 3, slow))
        assert fast.random() == slow.random()


def test_study_population_attributes_pinned():
    # the attribute values of the acceptance population, as first synthesized
    _, attrs = rv.make_study_population(4000, seed=20250810)
    digest = hashlib.sha256(np.ascontiguousarray(attrs.values).tobytes()).hexdigest()
    assert digest == "7174da5dabbda27b34de3640ae71f975387a453a7328b79286634f2644590f6c"


def _graph_digests(g) -> list[str]:
    return [
        hashlib.sha256(blob).hexdigest()
        for blob in ("\n".join(g.node_ids).encode(), g.indptr.tobytes(), g.indices.tobytes())
    ]


@pytest.mark.parametrize(
    "make, digests",
    [
        (  # the acceptance population's graph, as first synthesized
            lambda: rv.make_study_population(4000, seed=20250810)[0],
            [
                "877a326f5039856bc60c8fa98649396034fcdccc0ec8f93360de26f09081b2a7",
                "917d1703a4f899aa549c2f162e24d7bb6a0c09019859231e64e6a3669dbd2d6a",
                "5e20e73f46dbd438db39eb0173d63bd23f98adef2e6643fa2ea5c53ef22825e7",
            ],
        ),
        (  # K4 from this stream needs the dissolve branch of the pairing
            lambda: rv.generate_configuration_graph(4, rv.FixedDegree(3), generator(0, 0)),
            [
                "9d3d950edf1e7c7772a879becd48455ec4dc3fdfcf7dcdba916baa7b01ef1b42",
                "760efc2aa47e2fb1341cbd4b85d77597de00e0153ab05618ebdd289a8e69b382",
                "a90c45fe4d4a9715eaf6946fb55162e13ceb9ab3cfe52d45b3f089510f1689a6",
            ],
        ),
    ],
)
def test_synthesized_graphs_pinned(make, digests):
    g = make()
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    assert _graph_digests(g) == digests


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(0, 12),
    data=st.data(),
    src_type=st.sampled_from([np.int32, np.int64]),
    dst_type=st.sampled_from([np.int32, np.int64]),
)
def test_csr_matches_lexsort(n, data, src_type, dst_type):
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40)) if n else []
    src = np.array([a for a, _ in pairs], dtype=src_type)
    dst = np.array([b for _, b in pairs], dtype=dst_type)
    indptr, indices = _csr(n, src, dst)
    assert indptr.dtype == np.int64 and indices.dtype == dst.dtype
    assert indptr.tolist() == [0, *np.cumsum(np.bincount(src, minlength=n)).tolist()]
    assert np.array_equal(indices, dst[np.lexsort((dst, src))])


# ---------------------------------------------------------------- loaders
# The former per-line loaders, kept as references: the bulk loaders must
# read every file to the same graph and table, or fail with the same text.


@contextmanager
def _reference_open(path):
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"{path}: {e}") from None


def _reference_load_edge_list(path):
    """(node ids, indptr, indices, duplicates collapsed) read one line at a time."""
    ids: set[str] = set()
    edges: set[tuple[str, str]] = set()
    duplicates = 0
    with _reference_open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "," in line:
                parts = [p.strip() for p in line.split(",")]
            else:
                parts = line.split()
            parts = [p for p in parts if p]
            if len(parts) != 2:
                raise DataError(f"{path}:{lineno}: expected two node ids, got {len(parts)}")
            a, b = parts
            if a == b:
                raise DataError(f"{path}:{lineno}: self-loop on node {a!r} rejected")
            ids.add(a)
            ids.add(b)
            key = (a, b) if a < b else (b, a)
            if key in edges:
                duplicates += 1
            else:
                edges.add(key)
    node_ids = sorted(ids)
    index = {nid: i for i, nid in enumerate(node_ids)}
    nbrs = [[] for _ in node_ids]
    for a, b in edges:
        nbrs[index[a]].append(index[b])
        nbrs[index[b]].append(index[a])
    indptr = np.array([0, *np.cumsum([len(x) for x in nbrs], dtype=np.int64)], dtype=np.int64)
    indices = np.array([j for x in nbrs for j in sorted(x)], dtype=np.int32)
    return node_ids, indptr, indices, duplicates


def _reference_read_attribute_rows(path):
    with _reference_open(path) as fh:
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
        rows: dict[str, tuple[int, ...]] = {}
        start = reader.line_num + 1  # a row is named by the file line it starts on
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row:
                continue
            if len(row) != len(columns) + 1:
                raise DataError(f"{path}:{lineno}: expected {len(columns) + 1} fields, got {len(row)}")
            vals = []
            for j, cell in enumerate(row[1:]):
                cell = cell.strip()
                if cell not in ("0", "1"):
                    raise DataError(f"{path}:{lineno}: column {columns[j]!r} has non-binary value {cell!r}")
                vals.append(int(cell))
            rows[row[0].strip()] = tuple(vals)
    return columns, rows


def _reference_load_attributes(path, g):
    columns, rows = _reference_read_attribute_rows(path)
    values = np.zeros((g.n_nodes, len(columns)), dtype=np.uint8)
    seen = np.zeros(g.n_nodes, dtype=bool)
    for nid, vals in rows.items():
        if nid in g.node_ids:
            i = g.node_ids.index(nid)
            values[i] = vals
            seen[i] = True
    if not seen.all():
        missing = [g.node_ids[i] for i in np.flatnonzero(~seen)[:20]]
        more = int((~seen).sum()) - len(missing)
        suffix = f" (+{more} more)" if more > 0 else ""
        raise DataError(f"{path}: nodes missing from attribute file: {missing}{suffix}")
    return columns, values


def _reference_load_attributes_for(path, ids):
    columns, rows = _reference_read_attribute_rows(path)
    missing = sorted(set(ids) - rows.keys())
    if missing:
        suffix = f" (+{len(missing) - 20} more)" if len(missing) > 20 else ""
        raise DataError(f"{path}: nodes missing from attribute file: {missing[:20]}{suffix}")
    return columns, np.array([rows[i] for i in ids], dtype=np.uint8).reshape(len(ids), len(columns))


def _outcome(read, *args):
    try:
        return read(*args)
    except DataError as e:
        return f"DataError: {e}"


def _bulk_edges(path):
    g = rv.load_edge_list(path)
    assert g.indptr.dtype == np.int64 and g.indices.dtype == np.int32
    return g.node_ids, g.indptr, g.indices, g.duplicates_collapsed


def _bulk_attributes(path, g):
    t = rv.load_attributes(path, g)
    assert t.values.dtype == np.uint8
    return t.column_names, t.values


def _bulk_attributes_for(path, ids):
    t = load_attributes_for(path, ids)
    assert t.values.dtype == np.uint8
    return t.column_names, t.values


def _same(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b, strict=True))


_EOL = st.sampled_from(["\n", "\r\n", "\r"])
_EDGE_LINES = st.one_of(
    st.sampled_from([
        "a b", "b a", " c , a ", "a c", "b\tc", "  # x", ",#a,b", "#a b", "a #b", "", "  ", "a,,b", "a, b c",
        "a\x0cb", "b\x85c", "a c", "a\x0bb\x1cc", "a a", " a ,a", "a", "a b c", "a,b,c", ",", "é b",
    ]),
    st.text(alphabet="ab #,\t\r\x0b\x0c\x1c\x85 ", max_size=8),
)


@st.composite
def _edge_files(draw) -> bytes:
    text = "".join(line + eol for line, eol in draw(st.lists(st.tuples(_EDGE_LINES, _EOL), max_size=10)))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no terminator on the last line
    return text.encode()


@settings(max_examples=400, deadline=None)
@given(data=_edge_files())
def test_edge_list_matches_the_reference_loader(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("edges") / "edges.txt"
    path.write_bytes(data)
    assert _same(_outcome(_bulk_edges, path), _outcome(_reference_load_edge_list, path))


_CELLS = st.sampled_from(["0", "1"] * 8 + [" 1", "0 ", "\t1\x0c", '"1"', '"0\n"', "2", "", "x", "1 0", "\x00", "01"])
_IDS = st.sampled_from(["a", "b", "c", " b ", "zz", '"c"', "a"])
_HEADERS = st.sampled_from(["id,x,y"] * 5 + [" id , x ,y", '"id",x,"y"', "id,x", "x,id", "", "id", "\ufeffid,x"])


@st.composite
def _attribute_files(draw) -> bytes:
    header = draw(_HEADERS)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 5)) == 0:
            rows.append("")
        else:
            width = header.count(",") if draw(st.integers(0, 5)) else draw(st.integers(0, 3))
            rows.append(",".join([draw(_IDS), *(draw(_CELLS) for _ in range(width))]))
    return "".join(line + draw(_EOL) for line in [header, *rows]).encode()


@settings(max_examples=400, deadline=None)
@given(data=_attribute_files(), ids=st.lists(st.sampled_from(["a", "b", "c", "zz", "q"]), max_size=6))
def test_attribute_loaders_match_the_reference_loaders(tmp_path_factory, data, ids):
    path = tmp_path_factory.mktemp("attrs") / "attrs.csv"
    path.write_bytes(data)
    reference = _outcome(_reference_read_attribute_rows, path)
    every = [] if isinstance(reference, str) else list(reference[1])
    # drawn ids, which may repeat or be absent, and every id of the file twice
    for wanted in (ids, every + every[::-1]):
        assert _same(_outcome(_bulk_attributes_for, path, wanted), _outcome(_reference_load_attributes_for, path, wanted))
    g = _graph_of(["a b", "b c"], path.with_name("edges.txt"))
    assert _same(_outcome(_bulk_attributes, path, g), _outcome(_reference_load_attributes, path, g))


def test_attribute_errors_name_the_line_a_row_starts_on(tmp_path):
    # a quoted id holding a newline: the bad value sits on line 5, the third row
    path = tmp_path / "attrs.csv"
    path.write_bytes(b'id,x\n"A\nA",1\nB,1\nC,2\n')
    ids = ["B", "Q", "B"]
    assert _outcome(load_attributes_for, path, ids) == f"DataError: {path}:5: column 'x' has non-binary value '2'"
    assert _outcome(load_attributes_for, path, ids) == _outcome(_reference_load_attributes_for, path, ids)


def _graph_of(lines, path):
    path.write_text("".join(line + "\n" for line in lines))
    return rv.load_edge_list(path)


def test_attribute_loaders_match_on_many_missing_nodes_and_repeated_ids(tmp_path):
    g = _graph_of([f"n{i:02d} n{i + 1:02d}" for i in range(29)], tmp_path / "edges.txt")
    few = tmp_path / "few.csv"
    few.write_text("id,x\nn03,1\nn07,0\nn03,0\n")
    assert _outcome(_bulk_attributes, few, g) == _outcome(_reference_load_attributes, few, g)
    assert "(+8 more)" in _outcome(_bulk_attributes, few, g)
    full = tmp_path / "full.csv"
    full.write_text("id,x\n" + "".join(f"n{i:02d},{i % 2}\nn{i:02d}, {1 - i % 2} \n" for i in range(30)) + "out,1\n")
    assert _same(_bulk_attributes(full, g), _reference_load_attributes(full, g))
    assert rv.load_attributes(full, g).column("x").tolist() == [1 - i % 2 for i in range(30)]


def test_alignment_repeats_ids_and_names_each_missing_id_once(tmp_path):
    path = tmp_path / "attrs.csv"
    path.write_text("id,x,y\nn03,1,0\nn07,0,1\nn03,0,1\nout,1,1\n")
    t = load_attributes_for(path, ["n07", "n03", "n07", "n03"])
    assert t.column_names == ["x", "y"]
    assert t.values.tolist() == [[0, 1], [0, 1], [0, 1], [0, 1]]  # n03 takes its last row
    ids = [f"n{i:02d}" for i in range(29, -1, -1)] * 2  # 28 distinct ids missing, each listed twice
    message = _outcome(load_attributes_for, path, ids)
    assert message == _outcome(_reference_load_attributes_for, path, ids)
    named = [f"n{i:02d}" for i in range(30) if i not in (3, 7)][:20]
    assert message == f"DataError: {path}: nodes missing from attribute file: {named} (+8 more)"
    assert load_attributes_for(path, []).values.shape == (0, 2)


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    bom = "\ufeff".encode()
    edges = tmp_path / "edges.txt"
    edges.write_bytes(bom + b"a b\nb c\n")
    assert rv.load_edge_list(edges).node_ids == ["a", "b", "c"]
    attrs = tmp_path / "attrs.csv"
    attrs.write_bytes(bom + b"id,x\na,1\nb,0\nc,1\n")
    assert load_attributes_for(attrs, ["c", "a"]).column("x").tolist() == [1, 1]
    # only a leading mark: one inside the file is part of the text, and
    # an undecodable byte is still named by its offset in the file
    edges.write_bytes(bom + b"a b\n" + bom + b"c d\n")
    assert rv.load_edge_list(edges).node_ids == ["a", "b", "d", "\ufeffc"]
    attrs.write_bytes(bom + b"id,x\na,\xff\n")
    assert _outcome(load_attributes_for, attrs, ["a"]).endswith("can't decode byte 0xff in position 10: invalid start byte")


@pytest.mark.parametrize("late", [b"\xff\n", b"x" * 140_000 + b"\n"], ids=["undecodable", "oversized"])
@pytest.mark.parametrize("early", [b"", b"oops\n"], ids=["clean", "early-fault"])
def test_a_late_undecodable_or_oversized_line_keeps_the_error_order(tmp_path, early, late):
    # the line-by-line readers meet an early faulty row before an undecodable
    # byte or a field past the csv size limit 20 KiB on; they report the
    # byte's position within the 8 KiB chunk that holds it (3620 for the
    # edge file), the loaders its offset within the file
    edges = tmp_path / "edges.txt"
    head = b"a b\n" + early + b"b c\n" * 5000
    edges.write_bytes(head + late)
    bulk, reference = _outcome(_bulk_edges, edges), _outcome(_reference_load_edge_list, edges)
    assert bulk == _at_file_offset(reference, len(head)) and bulk.startswith("DataError")
    if late == b"\xff\n" and not early:
        assert "position 3620:" in reference
        assert bulk == f"DataError: {edges}: 'utf-8' codec can't decode byte 0xff in position 20004: invalid start byte"
    attrs = tmp_path / "attrs.csv"
    head = b"id,x\n" + early.replace(b"oops", b"a,2") + b"b,1\n" * 5000
    attrs.write_bytes(head + late)
    g = _graph_of(["a b"], tmp_path / "ab.txt")
    bulk, reference = _outcome(_bulk_attributes, attrs, g), _outcome(_reference_load_attributes, attrs, g)
    assert bulk == _at_file_offset(reference, len(head)) and bulk.startswith("DataError")


def _at_file_offset(text: str, offset: int) -> str:
    """A decode error's text with the byte's position made ``offset``; other texts as they are."""
    return re.sub(r"can't decode byte (0x[0-9a-f]{2}) in position \d+:", rf"can't decode byte \1 in position {offset}:", text)


@pytest.mark.parametrize(
    "header, message",
    [
        ("id,x,x", "attribute column 'x' appears more than once"),
        ("id,x,y, x ", "attribute column 'x' appears more than once"),
        ("id,,x", "header column 2 has an empty name"),
        ("id,x, ", "header column 3 has an empty name"),
    ],
)
def test_attribute_column_names_must_be_distinct_and_named(tmp_path, tiny_edge_file, header, message):
    path = tmp_path / "attrs.csv"
    path.write_text(header + "\na,1,0,1\n")
    g = rv.load_edge_list(tiny_edge_file)
    for read in (lambda: rv.load_attributes(path, g), lambda: load_attributes_for(path, ["a", "q", "a"])):
        with pytest.raises(DataError, match=message):
            read()
