"""Measure-by-measure checks against hand values and brute-force oracles."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csgraph, triu

from oracles import (ALL_MEASURE_ORACLES, CSR_MEASURES, bf_average_neighbor_degree,
                     bf_betweenness, bf_brandes_betweenness, bf_closeness, bf_clustering,
                     bf_core_number, bf_current_flow_betweenness, bf_harmonic, bf_voterank,
                     csgraph_current_flow_betweenness, csr_adjacency, dense_path_measures)
from conftest import (by_node, deal, edge_names, make_pg, random_multi_component_pg, random_pg,
                      random_tree_pg)

import vcnet.centrality as C
from vcnet.errors import ConvergenceError
from vcnet.graph import (FIRM, INVESTOR, SOURCE_BLOCK, build_bipartite, project_firms,
                         project_investors)


class TestLocalMeasures:
    def test_k3_clustering_and_core(self, k3_pg):
        assert by_node(k3_pg, C.clustering(k3_pg)) == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert by_node(k3_pg, C.core_number(k3_pg)) == {"a": 2, "b": 2, "c": 2}

    def test_k4_degree_centrality_is_one(self):
        k4 = make_pg(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert all(v == 1.0 for v in by_node(k4, C.degree_centrality(k4)).values())

    def test_path_average_neighbor_degree(self, path3_pg):
        and_ = by_node(path3_pg, C.average_neighbor_degree(path3_pg))
        assert and_ == {"a": 2.0, "b": 1.0, "c": 2.0}
        assert by_node(path3_pg, C.clustering(path3_pg)) == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_isolated_node_conventions(self):
        pg = make_pg(["x"], [])
        assert by_node(pg, C.degree_centrality(pg)) == {"x": 0.0}
        assert by_node(pg, C.average_neighbor_degree(pg)) == {"x": 0.0}
        assert by_node(pg, C.clustering(pg)) == {"x": 0.0}
        assert by_node(pg, C.core_number(pg)) == {"x": 0}
        assert by_node(pg, C.closeness(pg)) == {"x": 0.0}
        assert by_node(pg, C.harmonic(pg)) == {"x": 0.0}

    def test_empty_graph(self):
        pg = make_pg(0, [])
        for fn in (C.degree_centrality, C.betweenness, C.newman_betweenness, C.closeness,
                   C.harmonic, C.eigenvector, C.pagerank, C.clustering, C.core_number,
                   C.voterank):
            assert by_node(pg, fn(pg)) == {}

    def test_core_monotone_under_edge_addition(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(4, 10))
            pg = random_pg(rng, n, 0.4)
            before = by_node(pg, C.core_number(pg))
            edges = edge_names(pg)
            missing = [(u, v) for i, u in enumerate(pg.nodes) for v in pg.nodes[i + 1:]
                       if (u, v) not in edges]
            if not missing:
                continue
            u, v = missing[int(rng.integers(0, len(missing)))]
            bigger = make_pg(list(pg.nodes), edges + [(u, v)])
            after = by_node(bigger, C.core_number(bigger))
            assert after[u] >= before[u] and after[v] >= before[v]


class TestBetweenness:
    def test_path_middle_is_one(self, path3_pg):
        assert by_node(path3_pg, C.betweenness(path3_pg)) == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_k3_no_intermediaries(self, k3_pg):
        assert by_node(k3_pg, C.betweenness(k3_pg)) == {"a": 0.0, "b": 0.0, "c": 0.0}

    def test_star_center_is_one(self, star5_pg):
        bc = by_node(star5_pg, C.betweenness(star5_pg))
        assert bc["c0"] == pytest.approx(1.0, abs=1e-12)
        assert all(bc[l] == 0.0 for l in ("l1", "l2", "l3", "l4"))


class TestCurrentFlowBetweenness:
    def test_equals_shortest_path_on_trees(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pg = random_tree_pg(rng, int(rng.integers(3, 20)))
            cf = by_node(pg, C.newman_betweenness(pg))
            sp = by_node(pg, C.betweenness(pg))
            for v in pg.nodes:
                assert cf[v] == pytest.approx(sp[v], abs=1e-8)

    def test_k3_symmetric_third_of_unit(self, k3_pg):
        # By symmetry all three nodes are equal; the oracle value under the
        # endpoint-excluded, shortest-path-normalized convention is 1/3
        # (each intermediate carries one third of the pair current).
        cf = by_node(k3_pg, C.newman_betweenness(k3_pg))
        values = list(cf.values())
        assert max(values) - min(values) < 1e-10
        assert values[0] == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_four_cycle_vertex_transitive(self):
        pg = make_pg(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        values = list(by_node(pg, C.newman_betweenness(pg)).values())
        assert max(values) - min(values) < 1e-10

    def test_small_components_get_zero(self):
        pg = make_pg(5, [(0, 1)])  # one edge + three isolated nodes
        assert all(v == 0.0 for v in by_node(pg, C.newman_betweenness(pg)).values())


class TestClosenessHarmonic:
    def test_path_values(self, path3_pg):
        cl = by_node(path3_pg, C.closeness(path3_pg))
        assert cl["b"] == pytest.approx(1.0)
        assert cl["a"] == pytest.approx(2.0 / 3.0)
        h = by_node(path3_pg, C.harmonic(path3_pg))
        assert h["b"] == pytest.approx(1.0)
        assert h["a"] == pytest.approx(0.75)

    def test_k3_all_ones(self, k3_pg):
        assert all(v == pytest.approx(1.0) for v in by_node(k3_pg, C.closeness(k3_pg)).values())

    def test_component_correction(self):
        # two disjoint edges: each node reaches 1 of 3 others at distance 1
        pg = make_pg(4, [(0, 1), (2, 3)])
        for v, val in by_node(pg, C.closeness(pg)).items():
            assert val == pytest.approx((1 / 3) * (1 / 1))
        for v, val in by_node(pg, C.harmonic(pg)).items():
            assert val == pytest.approx(1 / 3)


class TestEigenvector:
    def test_path_ratio_sqrt2(self, path3_pg):
        ev = by_node(path3_pg, C.eigenvector(path3_pg))
        assert ev["b"] / ev["a"] == pytest.approx(math.sqrt(2), abs=1e-9)
        norm = math.sqrt(sum(v * v for v in ev.values()))
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_k3_uniform(self, k3_pg):
        ev = by_node(k3_pg, C.eigenvector(k3_pg))
        assert all(v == pytest.approx(1 / math.sqrt(3), abs=1e-9) for v in ev.values())

    def test_unit_norm_per_component_and_isolated_zero(self):
        pg = make_pg(5, [(0, 1), (1, 2), (3, 4)])  # path + edge + nothing isolated
        ev = by_node(pg, C.eigenvector(pg))
        comp1 = [ev["n00"], ev["n01"], ev["n02"]]
        comp2 = [ev["n03"], ev["n04"]]
        assert np.linalg.norm(comp1) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.norm(comp2) == pytest.approx(1.0, abs=1e-9)
        pg = make_pg(3, [(0, 1)])
        assert by_node(pg, C.eigenvector(pg))["n02"] == 0.0

    def test_bipartite_component_converges(self):
        # even cycles are bipartite; plain power iteration would oscillate
        c6 = make_pg(6, [(i, (i + 1) % 6) for i in range(6)])
        ev = by_node(c6, C.eigenvector(c6))
        assert all(v == pytest.approx(1 / math.sqrt(6), abs=1e-8) for v in ev.values())

    def test_iteration_cap_raises_with_residual(self, path3_pg):
        with pytest.raises(ConvergenceError) as err:
            C.eigenvector(path3_pg, max_iter=1)
        assert err.value.residual > 0


class TestPageRank:
    def test_k3_exact_thirds(self, k3_pg):
        pr = by_node(k3_pg, C.pagerank(k3_pg))
        assert all(abs(v - 1.0 / 3.0) < 1e-12 for v in pr.values())

    def test_star_frozen_closed_form(self, star5_pg):
        # solving the two-equation fixed point for K_{1,4} at damping 0.85:
        # center = 0.132/0.2775, each leaf = (1 - center)/4
        pr = by_node(star5_pg, C.pagerank(star5_pg))
        center = 0.132 / 0.2775
        assert pr["c0"] == pytest.approx(center, abs=1e-9)
        for leaf in ("l1", "l2", "l3", "l4"):
            assert pr[leaf] == pytest.approx((1.0 - center) / 4.0, abs=1e-9)
        assert pr["c0"] > pr["l1"]

    def test_mass_conservation_with_isolated_nodes(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pg = random_pg(rng, int(rng.integers(2, 12)), 0.25)
            pr = by_node(pg, C.pagerank(pg))
            assert sum(pr.values()) == pytest.approx(1.0, abs=1e-9)

    def test_isolated_node_gets_teleport_share_only(self):
        pg = make_pg(3, [(0, 1)])
        pr = by_node(pg, C.pagerank(pg))
        # the isolated node receives no walk edges; only teleport + dangling
        assert pr["n02"] < pr["n00"] == pr["n01"]
        assert sum(pr.values()) == pytest.approx(1.0, abs=1e-12)


class TestVoteRank:
    def test_star_center_first(self, star5_pg):
        assert by_node(star5_pg, C.voterank(star5_pg))["c0"] == 1

    def test_edgeless_all_share_rank_one(self):
        pg = make_pg(4, [])
        assert by_node(pg, C.voterank(pg)) == {f"n{i:02d}": 1 for i in range(4)}

    def test_two_triangles_frozen_trace(self):
        # hand trace: a1 elected (tie on ids), then b1, then a2 (score 1/2 tie),
        # then b2; a3/b3 end with zero-score voters and share rank 5
        tri2 = make_pg(["a1", "a2", "a3", "b1", "b2", "b3"],
                       [("a1", "a2"), ("a1", "a3"), ("a2", "a3"),
                        ("b1", "b2"), ("b1", "b3"), ("b2", "b3")])
        assert by_node(tri2, C.voterank(tri2)) == {"a1": 1, "b1": 2, "a2": 3, "b2": 4,
                                                   "a3": 5, "b3": 5}


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed,p", [(s, p) for s in range(10) for p in (0.2, 0.5, 0.8)])
    def test_all_measures_match_brute_force(self, seed, p):
        rng = np.random.default_rng(1000 * seed + int(p * 10))
        pg = random_pg(rng, int(rng.integers(2, 13)), p)
        computed = {
            "degree_centrality": by_node(pg, C.degree_centrality(pg)),
            "average_neighbor_degree": by_node(pg, C.average_neighbor_degree(pg)),
            "betweenness": by_node(pg, C.betweenness(pg)),
            "newman_betweenness": by_node(pg, C.newman_betweenness(pg)),
            "closeness_centrality": by_node(pg, C.closeness(pg)),
            "harmonic_centrality": by_node(pg, C.harmonic(pg)),
            "eigenvector_centrality": by_node(pg, C.eigenvector(pg)),
            "pagerank": by_node(pg, C.pagerank(pg)),
            "clustering": by_node(pg, C.clustering(pg)),
            "core_number": by_node(pg, C.core_number(pg)),
            "voterank": by_node(pg, C.voterank(pg)),
        }
        for measure, values in computed.items():
            oracle = ALL_MEASURE_ORACLES[measure](pg)
            for v in pg.nodes:
                assert values[v] == pytest.approx(oracle[v], abs=1e-8), \
                    f"{measure} mismatch at {v}"


#: Fixed before comparing: distance measures against the dict-based references.
REFERENCE_TOL = 1e-12


def _assert_matches(computed, reference, label):
    assert computed.keys() == reference.keys()
    for v in reference:
        assert abs(computed[v] - reference[v]) <= REFERENCE_TOL, f"{label} mismatch at {v}"


def _multi_component_pg(k):
    rng = np.random.default_rng(500 + k)
    return random_multi_component_pg(rng, 30 + 6 * k)  # 30..144 nodes: one or two source blocks


def _ladder_pg(rungs=40):
    edges = ([(i, i + 1) for i in range(rungs - 1)]
             + [(rungs + i, rungs + i + 1) for i in range(rungs - 1)]
             + [(i, rungs + i) for i in range(rungs)])
    return make_pg(2 * rungs, edges)


def _three_block_pg():
    return random_multi_component_pg(np.random.default_rng(900), 2 * SOURCE_BLOCK + 7)


def _diamond_chain_pg(diamonds=45):
    """hub 0 - {a, b} - hub 3 - {a, b} - hub 6 ...: 2**k shortest paths across k diamonds."""
    edges = []
    for d in range(diamonds):
        h, a, b, nxt = 3 * d, 3 * d + 1, 3 * d + 2, 3 * d + 3
        edges += [(h, a), (h, b), (a, nxt), (b, nxt)]
    return make_pg(3 * diamonds + 1, edges)


def _path_pg(n):
    return make_pg([f"v{i:03d}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def _assert_csgraph_distances(pg):
    """The pass's reach counts, integer hop sums and inverse-hop sums equal those of
    scipy's distances to the last bit, each taken row by row in node order."""
    expected = csgraph.shortest_path(csr_adjacency(pg), directed=False, unweighted=True)
    rows = [row[np.isfinite(row) & (row > 0)] for row in expected]
    _, reach, hop_sum, inverse_hop_sum, _ = pg.paths
    assert reach.tolist() == [row.size for row in rows]
    assert hop_sum.dtype == np.int64
    assert hop_sum.tolist() == [int(row.sum()) for row in rows]
    assert inverse_hop_sum.tobytes() == np.array([(1.0 / row).sum() for row in rows]).tobytes()


def _assert_dense_route_bytes(pg):
    """Betweenness, closeness, harmonic and the component labels equal the dense
    two-traversal route's to the last bit, in the same types."""
    got = (C.betweenness(pg), C.closeness(pg), C.harmonic(pg), pg.labels)
    for name, value, reference in zip(("betweenness", "closeness", "harmonic", "labels"), got,
                                      dense_path_measures(pg)):
        assert value.dtype == reference.dtype and value.tobytes() == reference.tobytes(), name


def _assert_csgraph_labels_and_current_flow(pg):
    """Component labels equal scipy's element for element; each component's nodes are
    one group of them, in label order, and its local edges the rows of ``triu`` of its
    adjacency block, in order; and current flow equals the same formula built on
    ``csgraph.laplacian``, to the last bit."""
    A = csr_adjacency(pg)
    count, labels = csgraph.connected_components(A, directed=False)
    assert pg.labels.tolist() == labels.tolist()
    assert len(pg.components) == count
    for c, (nodes, edges) in enumerate(pg.components):
        assert nodes.tolist() == np.flatnonzero(labels == c).tolist()
        upper = triu(A[np.ix_(nodes, nodes)], k=1).tocoo()
        assert edges.shape == (upper.nnz, 2)
        assert edges.tolist() == np.column_stack([upper.row, upper.col]).tolist()
    assert by_node(pg, C.newman_betweenness(pg)) == csgraph_current_flow_betweenness(pg)


#: Fixed before comparing: betweenness multiplies non-integer shares by the dense
#: adjacency, whose BLAS summation order is not the CSR route's; each value stays
#: within this much of the CSR route's, relative to the graph's largest value.
BETWEENNESS_CSR_RTOL = 1e-15


def _assert_products_match_csr(pg):
    """Every measure equals its scipy CSR route to the last bit, and betweenness is
    within ``BETWEENNESS_CSR_RTOL`` of it."""
    for name, csr_route in CSR_MEASURES.items():
        got, want = getattr(C, name)(pg), csr_route(pg)
        assert got.dtype == want.dtype, name
        if name == "betweenness":
            bound = BETWEENNESS_CSR_RTOL * np.abs(want).max(initial=0.0)
            assert np.abs(got - want).max(initial=0.0) <= bound
        else:
            assert by_node(pg, got) == by_node(pg, want), name


def _nested_shell_pg():
    """A 7-clique, then shells 5..1 of four nodes each, every node of shell s linked
    to s random nodes added before it, plus two isolated nodes; shuffled names.

    A shell-s node has degree s and all its neighbors lie in cores above s, so
    its core number is exactly s, and no later shell raises an earlier core.
    """
    rng = np.random.default_rng(2003)
    expected = [6] * 7 + [s for s in range(5, 0, -1) for _ in range(4)] + [0, 0]
    edges = [(i, j) for i, j in itertools.combinations(range(7), 2)]
    for v in range(7, len(expected) - 2):
        edges += [(int(u), v) for u in rng.choice(v, size=expected[v], replace=False)]
    names = [f"v{int(i):02d}" for i in rng.permutation(len(expected))]
    pg = make_pg(names, [(names[u], names[v]) for u, v in edges])
    return pg, {names[v]: core for v, core in enumerate(expected)}


class TestReferenceGraphs:
    """Measures on graphs too large for path enumeration."""

    @pytest.mark.parametrize("k", range(20))
    def test_distance_measures_on_multi_component_graphs(self, k):
        pg = _multi_component_pg(k)
        _assert_matches(by_node(pg, C.betweenness(pg)), bf_brandes_betweenness(pg), "betweenness")
        _assert_matches(by_node(pg, C.closeness(pg)), bf_closeness(pg), "closeness")
        _assert_matches(by_node(pg, C.harmonic(pg)), bf_harmonic(pg), "harmonic")

    @pytest.mark.parametrize("k", range(20))
    def test_distances_equal_csgraph_on_multi_component_graphs(self, k):
        _assert_csgraph_distances(_multi_component_pg(k))

    def test_distances_equal_csgraph_on_ladder_and_over_three_source_blocks(self):
        _assert_csgraph_distances(_ladder_pg())
        _assert_csgraph_distances(_three_block_pg())

    @pytest.mark.parametrize("n, edges", [(0, []), (1, []), (2, []), (2, [(0, 1)])])
    def test_distances_equal_csgraph_on_tiny_graphs(self, n, edges):
        _assert_csgraph_distances(make_pg(n, edges))

    @pytest.mark.parametrize("n, dtype", [(128, np.int8), (129, np.int16)])
    def test_hop_counts_in_smallest_type_holding_minus_n(self, n, dtype):
        # The longest hop count, n - 1 between the two ends, is int8's largest value at
        # 128 nodes and one past it at 129, which needs int16: a count wrapped to -128
        # would drop out of the ends' reach and hop sums.
        assert (n - 1 <= np.iinfo(np.int8).max) == (dtype == np.int8)
        pg = _path_pg(n)
        _, reach, hop_sum, _, _ = pg.paths
        assert reach[0] == reach[n - 1] == n - 1
        assert hop_sum[0] == hop_sum[n - 1] == n * (n - 1) // 2
        _assert_csgraph_distances(pg)

    def test_distance_measures_over_three_source_blocks(self):
        # dependencies carried across three blocks of sources, the last of 7
        pg = _three_block_pg()
        _assert_matches(by_node(pg, C.betweenness(pg)), bf_brandes_betweenness(pg), "betweenness")
        _assert_matches(by_node(pg, C.closeness(pg)), bf_closeness(pg), "closeness")
        _assert_matches(by_node(pg, C.harmonic(pg)), bf_harmonic(pg), "harmonic")

    @pytest.mark.parametrize("k", range(20))
    def test_pass_equals_dense_route_bytes_on_multi_component_graphs(self, k):
        _assert_dense_route_bytes(_multi_component_pg(k))

    def test_pass_equals_dense_route_bytes_on_ladder_diamonds_and_three_source_blocks(self):
        for pg in (_ladder_pg(), _diamond_chain_pg(), _three_block_pg()):
            _assert_dense_route_bytes(pg)

    @pytest.mark.parametrize("n, edges", [(0, []), (1, []), (2, []), (2, [(0, 1)]), (4, []),
                                          (5, [(0, 1)]), (6, [(3, 4), (4, 5), (5, 3)])])
    def test_pass_equals_dense_route_bytes_on_tiny_graphs(self, n, edges):
        _assert_dense_route_bytes(make_pg(n, edges))

    @pytest.mark.parametrize("n", [128, 129])
    def test_pass_equals_dense_route_bytes_on_paths_at_the_int8_boundary(self, n):
        _assert_dense_route_bytes(_path_pg(n))

    @pytest.mark.parametrize("k", range(20))
    def test_labels_and_current_flow_equal_csgraph_on_multi_component_graphs(self, k):
        _assert_csgraph_labels_and_current_flow(_multi_component_pg(k))

    @pytest.mark.parametrize("n, edges", [(0, []), (1, []), (4, []), (5, [(0, 1)]),
                                          (6, [(3, 4), (4, 5), (5, 3)])])
    def test_labels_and_current_flow_equal_csgraph_on_tiny_graphs(self, n, edges):
        _assert_csgraph_labels_and_current_flow(make_pg(n, edges))

    def test_labels_and_current_flow_equal_csgraph_on_ladder(self):
        _assert_csgraph_labels_and_current_flow(_ladder_pg())

    @pytest.mark.parametrize("k", range(20))
    def test_local_measures_exact_on_multi_component_graphs(self, k):
        # Integer counts divided once: equal to the oracles to the last bit.
        pg = _multi_component_pg(k)
        assert by_node(pg, C.clustering(pg)) == bf_clustering(pg)
        assert by_node(pg, C.average_neighbor_degree(pg)) == bf_average_neighbor_degree(pg)
        assert by_node(pg, C.core_number(pg)) == bf_core_number(pg)

    def test_nested_shells_core_numbers(self):
        pg, expected = _nested_shell_pg()
        assert set(expected.values()) == set(range(7))
        core = by_node(pg, C.core_number(pg))
        assert core == expected
        assert core == bf_core_number(pg)

    def test_nested_shells_voterank(self):
        pg, _ = _nested_shell_pg()
        assert by_node(pg, C.voterank(pg)) == bf_voterank(pg)

    @pytest.mark.parametrize("k", range(20))
    def test_products_equal_csr_route_on_multi_component_graphs(self, k):
        _assert_products_match_csr(_multi_component_pg(k))

    @pytest.mark.parametrize("n, edges", [(0, []), (1, []), (4, []), (2, [(0, 1)])])
    def test_products_equal_csr_route_on_tiny_graphs(self, n, edges):
        _assert_products_match_csr(make_pg(n, edges))

    def test_products_equal_csr_route_on_ladder_and_nested_shells(self):
        _assert_products_match_csr(_ladder_pg())
        _assert_products_match_csr(_nested_shell_pg()[0])

    def test_voterank_tie_after_update_goes_to_smallest_id(self):
        # c (degree 4) wins first; its neighbours n1 and n2 then both drop from 3 to
        # exactly 2, and n1, the smaller id, wins the tie. z1 and z2 are c's other leaves.
        pg = make_pg(["c", "n1", "n2", "a1", "a2", "b1", "b2", "z1", "z2"],
                     [("c", "n1"), ("c", "n2"), ("c", "z1"), ("c", "z2"),
                      ("n2", "a1"), ("n2", "a2"), ("n1", "b1"), ("n1", "b2")])
        ranks = by_node(pg, C.voterank(pg))
        assert [ranks[v] for v in ("c", "n1", "n2")] == [1, 2, 3]
        assert ranks == bf_voterank(pg) == by_node(pg, CSR_MEASURES["voterank"](pg))

    def test_ladder(self):
        pg = _ladder_pg()
        _assert_matches(by_node(pg, C.betweenness(pg)), bf_brandes_betweenness(pg), "betweenness")

    def test_diamond_chain_path_counts_double_per_diamond(self):
        pg = _diamond_chain_pg()
        _assert_matches(by_node(pg, C.betweenness(pg)), bf_brandes_betweenness(pg), "betweenness")

    def test_current_flow_over_several_edge_blocks(self):
        rng = np.random.default_rng(77)
        dense = [(i, j) for i, j in itertools.combinations(range(26), 2) if rng.random() < 0.85]
        # plus a path component and an isolated node, which change the normalization
        pg = make_pg(30, dense + [(26, 27), (27, 28)])
        assert len(dense) > C._EDGE_BLOCK
        _assert_matches(by_node(pg, C.newman_betweenness(pg)), bf_current_flow_betweenness(pg),
                        "newman_betweenness")

    def test_brandes_reference_matches_path_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            pg = random_pg(rng, int(rng.integers(3, 11)), 0.4)
            _assert_matches(bf_brandes_betweenness(pg), bf_betweenness(pg), "reference")


class TestFrames:
    def _graph(self):
        return build_bipartite([
            deal("fA", "i1", "rA1", "2005-02-01", 100),
            deal("fA", "i2", "rA1", "2005-02-01", 50),
            deal("fB", "i1", "rB1", "2005-06-01", 70),
            deal("fB", "i3", "rB2", "2005-09-01", 30),
        ])

    def test_compute_frame_layer_columns(self):
        g = self._graph()
        pg = project_firms(g, 2005, 7)
        firm_frame = C.compute_frame(pg, g)
        assert firm_frame.nodes == pg.nodes
        assert "core_number" in firm_frame.measures
        assert by_node(firm_frame, firm_frame.measures["n_investors"]) == {"fA": 2, "fB": 2}
        inv_frame = C.compute_frame(project_investors(g, 2005))
        assert "core_number" not in inv_frame.measures
        assert "n_investors" not in inv_frame.measures
        assert set(inv_frame.measures) == set(C.COMMON_MEASURES)

    @pytest.mark.parametrize("n, edges", [(0, []), (1, []), (2, []),
                                          (6, [(0, 1), (1, 2), (3, 4)])])
    def test_frame_holds_one_array_per_measure_in_node_order(self, n, edges):
        pg = make_pg(n, edges)
        frame = C.compute_frame(pg)
        assert frame.nodes == pg.nodes
        assert set(frame.measures) == set(C.COMMON_MEASURES) | {"core_number"}
        for m, values in frame.measures.items():
            assert values.shape == (n,)
            assert values.dtype == (np.int64 if m in ("core_number", "voterank") else np.float64), m

    def test_frames_csv_round_trip(self, tmp_path):
        # Two components and an isolated node on each layer, so the values
        # differ between nodes and each must come back on its own node.
        g = build_bipartite([
            deal("fA", "i1", "rA1", "2005-02-01", 100),
            deal("fA", "i4", "rA1", "2005-02-01", 60),
            deal("fB", "i1", "rB1", "2005-06-01", 70),
            deal("fC", "i2", "rC1", "2005-03-01", 30),
            deal("fD", "i2", "rD1", "2005-04-01", 40),
            deal("fD", "i5", "rD1", "2005-04-01", 45),
            deal("fE", "i3", "rE1", "2005-05-01", 90),
        ])
        firm_pg, inv_pg = project_firms(g, 2005, 7), project_investors(g, 2005)
        assert firm_pg.labels.max() == inv_pg.labels.max() == 2
        frames = [C.compute_frame(firm_pg, g), C.compute_frame(inv_pg)]
        path = tmp_path / "frames.csv"
        C.write_frames_csv(frames, path)
        back = C.read_frames_csv(path)
        assert set(back) == {(2005, FIRM), (2005, INVESTOR)}
        for frame in frames:
            again = back[(frame.snapshot_year, frame.layer)]
            assert again.nodes == frame.nodes
            assert set(again.measures) == set(frame.measures)
            for m, values in frame.measures.items():
                assert by_node(again, again.measures[m]) == by_node(frame, values)

    def test_read_back_holds_about_one_frame_of_rows(self, tmp_path):
        # a frame's rows are about 360 kB of strings at 300 nodes; the result keeps
        # its arrays, so the peak less what the result keeps is the read's transient
        def transient(n_years):
            rng = np.random.default_rng(n_years)
            nodes = tuple(f"F{i:05d}" for i in range(300))
            path = tmp_path / f"frames_{n_years}.csv"
            C.write_frames_csv([C.CentralityFrame(2000 + y, layer, nodes, {
                m: rng.random(len(nodes)) for m in C.COMMON_MEASURES})
                for y in range(n_years) for layer in (FIRM, INVESTOR)], path)
            C.read_frames_csv(path)  # first-call allocations stay out of the count
            tracemalloc.start()
            try:
                back = C.read_frames_csv(path)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(back) == 2 * n_years
            return peak - kept

        assert transient(20) <= 2 * transient(1) + 64 * 1024


class TestCovariateColumns:
    def test_documented_names_present(self):
        cols = C.covariate_columns()
        for name in ("closeness_centrality_org", "pagerank_org", "eigenvector_centrality_org",
                     "clustering_org", "pagerank_median", "voterank_max",
                     "average_neighbor_degree_max", "harmonic_centrality_median",
                     "clustering_min", "n_investors", "first_amount", "core_number_org"):
            assert name in cols

    def test_no_duplicates_and_no_investor_core_number(self):
        cols = C.covariate_columns()
        assert len(cols) == len(set(cols))
        assert not any(c.startswith("core_number_") and not c.endswith("_org") for c in cols)
        assert not any(c.startswith("n_investors_") for c in cols)


def _manual_frames(g, year, inv_values):
    """Firm frame over ``g``'s firm projection with constant own values and
    ``g``'s investor counts; investor frame over the nodes of a dict."""
    pg = project_firms(g, year, 7)
    firm_measures = {m: np.full(len(pg), 0.5) for m in C.COMMON_MEASURES}
    firm_measures["core_number"] = np.ones(len(pg), dtype=np.int64)
    firm_measures["n_investors"] = C.compute_frame(pg, g).measures["n_investors"]
    inv_nodes = tuple(sorted(inv_values))
    inv_measures = {m: np.array([inv_values[i] for i in inv_nodes]) for m in C.COMMON_MEASURES}
    return (C.CentralityFrame(year, FIRM, pg.nodes, firm_measures),
            C.CentralityFrame(year, INVESTOR, inv_nodes, inv_measures))


class TestAssembleCovariates:
    def _graph(self, investors):
        deals = [deal("fA", i, "r1", "2005-03-01", 100) for i in investors]
        deals.append(deal("fB", "i9", "r1", "2001-01-01", 10))  # different first year
        return build_bipartite(deals)

    def test_singleton_investor_summaries_collapse(self):
        g = self._graph(["i1"])
        firm_frame, inv_frame = _manual_frames(g, 2005, {"i1": 0.7, "i9": 0.1})
        rows = C.assemble_covariates(firm_frame, inv_frame, g)
        assert [r.firm_id for r in rows] == ["fA"]
        row = rows[0]
        for m in C.COMMON_MEASURES:
            assert row.values[f"{m}_max"] == row.values[f"{m}_min"] == row.values[f"{m}_median"] == 0.7

    def test_odd_count_median(self):
        g = self._graph(["i1", "i2", "i3"])
        firm_frame, inv_frame = _manual_frames(g, 2005, {"i1": 0.1, "i2": 0.2, "i3": 0.4})
        row = C.assemble_covariates(firm_frame, inv_frame, g)[0]
        assert row.values["pagerank_median"] == pytest.approx(0.2)

    def test_even_count_median_is_middle_mean(self):
        g = self._graph(["i1", "i2"])
        firm_frame, inv_frame = _manual_frames(g, 2005, {"i1": 0.1, "i2": 0.3})
        row = C.assemble_covariates(firm_frame, inv_frame, g)[0]
        assert row.values["pagerank_median"] == pytest.approx(0.2)

    def test_missing_investors_zeroed_and_flagged(self):
        g = self._graph(["i1", "i2"])
        firm_frame, inv_frame = _manual_frames(g, 2005, {"other": 1.0})
        row = C.assemble_covariates(firm_frame, inv_frame, g)[0]
        assert row.investor_measures_missing
        assert row.values["pagerank_max"] == 0.0

    def test_first_amount_and_n_investors(self):
        g = self._graph(["i1", "i2"])
        firm_frame, inv_frame = _manual_frames(g, 2005, {"i1": 0.1, "i2": 0.3})
        row = C.assemble_covariates(firm_frame, inv_frame, g)[0]
        assert row.values["first_amount"] == 200.0
        assert row.values["n_investors"] == 2.0

    def test_summary_ordering_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            investors = [f"i{k}" for k in range(int(rng.integers(1, 6)))]
            g = self._graph(investors)
            values = {i: float(rng.random()) for i in investors}
            firm_frame, inv_frame = _manual_frames(g, 2005, values)
            row = C.assemble_covariates(firm_frame, inv_frame, g)[0]
            for m in C.COMMON_MEASURES:
                assert row.values[f"{m}_min"] <= row.values[f"{m}_median"] <= row.values[f"{m}_max"]

    def test_covariates_csv_round_trip(self, tmp_path):
        g = self._graph(["i1", "i2"])
        firm_frame, inv_frame = _manual_frames(g, 2005, {"i1": 0.1, "i2": 0.3})
        rows = C.assemble_covariates(firm_frame, inv_frame, g)
        path = tmp_path / "covariates.csv"
        C.write_covariates_csv(rows, path)
        back = C.read_covariates_csv(path)
        assert len(back) == 1
        assert back[0].firm_id == rows[0].firm_id
        assert back[0].first_year == 2005
        assert back[0].values == pytest.approx(rows[0].values)
