import hashlib
import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdsvar as rv
from rdsvar.errors import DataError
from rdsvar.graph import _component_labels, _is_graphical, component_sizes, load_summary
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
