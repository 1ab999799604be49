import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinkick import build_graph, chain, export_dot, graph_json, pulses
from spinkick.exceptions import ResourceCapError
from spinkick.pulses import MAX_LABEL_BYTES

import oracles

# closure of X_5 in canonical order: X-seeded family first, receiver end first
N5_NODES = [
    "IIIIX", "IIIYZ", "IIXZZ", "IYZZZ", "XZZZZ",
    "IIIIY", "IIIXZ", "IIYZZ", "IXZZZ", "YZZZZ",
]


class TestCanonicalOrder:
    def test_n5_nodes(self):
        g = build_graph(5)
        assert [str(p) for p in g.nodes] == N5_NODES

    def test_n2_nodes(self):
        g = build_graph(2)
        assert [str(p) for p in g.nodes] == ["IX", "YZ", "IY", "XZ"]

    def test_labels_are_plain_strings_of_lead_and_z_tail(self):
        # every node is an N-letter string: identities, one X or Y lead, then Z to the end
        for n in range(2, 41):
            nodes = build_graph(n).nodes
            assert all(type(p) is str and len(p) == n for p in nodes)
            assert all(re.fullmatch("I*[XY]Z*", p) for p in nodes)
            assert len(set(nodes)) == 2 * n
            assert chain(n).nodes == nodes

    def test_transfer_indices(self):
        # the end-to-end transfer coefficients sit at fixed slots N and 2N, X first for odd N
        for n in range(2, 60):
            g = build_graph(n)
            assert str(g.nodes[n - 1]) == ("X" if n % 2 == 1 else "Y") + "Z" * (n - 1)
            assert str(g.nodes[2 * n - 1]) == ("Y" if n % 2 == 1 else "X") + "Z" * (n - 1)


class TestClosure:
    @pytest.mark.parametrize("n_sites", range(2, 13))
    def test_node_count(self, n_sites):
        assert len(build_graph(n_sites).nodes) == 2 * n_sites

    @pytest.mark.parametrize("n_sites", [2, 3, 5, 8])
    def test_edge_counts_per_channel(self, n_sites):
        g = build_graph(n_sites)
        counts = {"Jx": 0, "Jy": 0, "B": 0}
        for e in g.edges:
            counts[e.channel] += 1
        assert counts["B"] == n_sites
        assert counts["Jx"] == n_sites - 1
        assert counts["Jy"] == n_sites - 1

    def test_channel_order_does_not_matter(self):
        reference = build_graph(4)
        ref_edges = {(e.a, e.b, e.channel, e.sign) for e in reference.edges}
        for perm in itertools.permutations(("Jx", "Jy", "B")):
            g = build_graph(4, perm)
            assert g.nodes == reference.nodes
            assert {(e.a, e.b, e.channel, e.sign) for e in g.edges} == ref_edges

    def test_single_channel_closures(self):
        # X_N commutes with every XX bond, so the Jx-only closure is the seed
        g = build_graph(5, ("Jx",))
        assert [str(p) for p in g.nodes] == ["IIIIX"]
        assert g.edges == ()
        # one Jy bond touches the seed, and the result is Jy-stranded again
        g = build_graph(5, ("Jy",))
        assert [str(p) for p in g.nodes] == ["IIIIX", "IIIYZ"]
        # the field only rotates X_N into Y_N
        g = build_graph(5, ("B",))
        assert sorted(str(p) for p in g.nodes) == ["IIIIX", "IIIIY"]

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
    def test_every_channel_subset_against_dense_closure(self, n_sites):
        """Nodes, edges and signs of each channel subset's graph match the
        closure of X_N under dense commutators with those channels."""
        for r in (1, 2, 3):
            for channels in itertools.combinations(("Jx", "Jy", "B"), r):
                g = build_graph(n_sites, channels)
                reached, dense_edges = oracles.dense_closure(n_sites, channels)
                labels = [tuple(p) for p in g.nodes]
                assert set(labels) == reached and len(labels) == len(reached), channels
                want = {}
                for e in g.edges:
                    want[(labels[e.a], labels[e.b], e.channel)] = e.sign
                    want[(labels[e.b], labels[e.a], e.channel)] = -e.sign
                assert want == dense_edges, channels

    def test_jx_jy_subgraphs_are_disjoint_pairings(self):
        # within the full graph each node has at most one Jx and one Jy partner
        g = build_graph(6)
        for channel in ("Jx", "Jy"):
            seen = {}
            for e in g.edges:
                if e.channel != channel:
                    continue
                for v in (e.a, e.b):
                    assert v not in seen, f"{channel} edge repeats node {v}"
                    seen[v] = True

    def test_validation(self):
        with pytest.raises(ValueError):
            build_graph(1)
        with pytest.raises(ValueError):
            build_graph(3, ("Jx", "Jz"))
        with pytest.raises(ValueError):
            build_graph(3, ())

    def test_label_cap(self):
        # 2N labels of N characters: N = 5792 is the last chain within 2^26 bytes
        last = 5792
        assert 2 * last ** 2 <= MAX_LABEL_BYTES < 2 * (last + 1) ** 2
        k = chain.__wrapped__(last)  # past the cache, which would keep its 67 MB
        assert len(k.nodes) == 2 * last and k.nodes[0] == "I" * (last - 1) + "X"
        del k
        for build in (chain, build_graph):
            with pytest.raises(ResourceCapError, match=rf"^N={last + 1}: .* cap of {MAX_LABEL_BYTES} bytes$"):
                build(last + 1)


def _channel_matrices(k):
    """Dense K_Jx, K_Jy, K_B, each channel alone at amplitude 1."""
    return [k.combined(*row) for row in np.eye(3)]


class TestEdgeSigns:
    def test_n5_first_rows(self):
        k = chain(5)
        k_jx, k_jy, k_b = _channel_matrices(k)
        # receiver X couples to receiver Y through the field ...
        assert k_b[0, 5] == 1
        assert k_b[5, 0] == -1
        # ... and to the Y Z tail through the Jy bond
        assert k_jy[0, 1] == -1
        assert k_jy[1, 0] == 1
        # Jx does not touch the receiver X node
        assert np.all(k_jx[0] == 0)

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
    def test_antisymmetry(self, n_sites):
        k = chain(n_sites)
        for mat in _channel_matrices(k):
            np.testing.assert_array_equal(mat.T, -mat)

    def test_cache_keeps_small_chains_past_32(self):
        # the cache is bounded by the labels it holds, not by a count of chains
        built = {n: chain(n) for n in range(2, 41)}
        assert all(chain(n) is k for n, k in built.items())

    def test_cache_drops_least_recent_chains_past_the_label_cap(self, monkeypatch):
        # room for the labels of N = 411 and 413 (2N^2 bytes each), not for a third chain
        monkeypatch.setattr(pulses, "MAX_LABEL_BYTES", 2 * (411 ** 2 + 413 ** 2))
        k411, k412 = chain(411), chain(412)
        assert chain(411) is k411  # now the most recent
        k413 = chain(413)
        assert chain(411) is k411 and chain(413) is k413
        assert chain(412) is not k412  # dropped, and built again

    def test_chain_is_shared_and_read_only(self):
        k = chain(4)
        assert chain(4) is k
        want = chain.__wrapped__(4)  # a fresh build, past the cache
        assert k.nodes == want.nodes
        got = [a for m in k.matchings for a in m]
        ref = [a for m in want.matchings for a in m]
        for array, array_ref in zip(got, ref):
            np.testing.assert_array_equal(array, array_ref)
            with pytest.raises(ValueError):
                array[0] = 1

    @pytest.mark.parametrize("n_sites", range(2, 41))
    def test_each_channel_is_a_matching(self, n_sites):
        # the closed-form window maps rely on this: one rotation per edge, none sharing a node
        k = chain(n_sites)
        mats = _channel_matrices(k)
        for mat, m in zip(mats, k.matchings):
            nonzero = mat != 0
            assert nonzero.sum(axis=0).max() <= 1 and nonzero.sum(axis=1).max() <= 1
            assert not np.signbit(mat[~nonzero]).any()  # the channels at 0 write no -0.0
            rebuilt = np.zeros((k.dim, k.dim))
            rebuilt[m.a, m.b] = m.sign
            rebuilt[m.b, m.a] = -m.sign
            assert np.array_equal(rebuilt, mat)
        union = (mats[0] != 0) | (mats[1] != 0) | (mats[2] != 0)
        assert union.sum(axis=1).max() <= 3

    def test_combined_is_linear(self):
        k = chain(3)
        got = k.combined(0.5, -2.0, 3.0)
        k_jx, k_jy, k_b = _channel_matrices(k)
        np.testing.assert_allclose(got, 0.5 * k_jx - 2.0 * k_jy + 3.0 * k_b)

    @settings(max_examples=60, deadline=None)
    @given(n_sites=st.integers(2, 12),
           rows=st.lists(st.tuples(*[st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                                               st.floats(-5.0, 5.0))] * 3),
                         min_size=1, max_size=10))
    def test_amplitude_arrays_give_the_scalar_generators(self, n_sites, rows):
        k = chain(n_sites)
        stack = k.combined(*np.array(rows).T)
        assert stack.shape == (len(rows), k.dim, k.dim)
        assert stack.tobytes() == np.array([k.combined(*row) for row in rows]).tobytes()
        assert not np.signbit(stack[stack == 0]).any()

    @pytest.mark.parametrize("n_sites", range(2, 8))
    def test_every_edge_and_no_missing_edge_against_dense(self, n_sites):
        """The stored edges must reproduce the dense commutator of every
        channel term with every node, including the absence of an edge."""
        g = build_graph(n_sites)
        dense_nodes = [oracles.string_matrix(str(p)) for p in g.nodes]
        edge_lookup = {}
        for e in g.edges:
            edge_lookup[(e.a, e.channel)] = (e.b, e.sign)
            edge_lookup[(e.b, e.channel)] = (e.a, -e.sign)
        by_channel = {c: oracles.channel_hamiltonian(n_sites, c) for c in ("Jx", "Jy", "B")}
        for a, dense_a in enumerate(dense_nodes):
            for channel, h in by_channel.items():
                dense = oracles.commutator(h, dense_a)
                if (a, channel) in edge_lookup:
                    b, sign = edge_lookup[(a, channel)]
                    expected = 2j * sign * dense_nodes[b]
                    np.testing.assert_allclose(dense, expected, atol=1e-15)
                else:
                    assert np.max(np.abs(dense)) == 0.0


class TestExports:
    def test_dot_structure(self):
        text = export_dot(build_graph(3))
        assert text.startswith("digraph operator_graph {")
        assert text.rstrip().endswith("}")
        assert 'n1 [label="IIX"];' in text
        assert "color=green" in text and "color=red" in text and "color=black" in text
        edge_lines = [l for l in text.splitlines() if "->" in l]
        assert len(edge_lines) == 3 * 3 - 2
        assert all('label="+1"' in l or 'label="-1"' in l for l in edge_lines)

    def test_json_shape(self):
        data = graph_json(build_graph(3))
        assert data["n_sites"] == 3
        assert len(data["nodes"]) == 6
        assert [d["index"] for d in data["nodes"]] == list(range(1, 7))
        assert data["nodes"][0]["string"] == "IIX"
        for d in data["nodes"]:
            for e in d["edges"]:
                assert set(e) == {"to", "channel", "sign"}

    def test_json_lists_both_directions_with_opposite_signs(self):
        data = graph_json(build_graph(4))
        signs = {}
        for d in data["nodes"]:
            for e in d["edges"]:
                signs[(d["index"], e["to"], e["channel"])] = e["sign"]
        for (a, b, ch), s in signs.items():
            assert signs[(b, a, ch)] == -s
