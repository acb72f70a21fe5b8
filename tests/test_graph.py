"""Bipartite construction, projections, and first-round extraction."""

import warnings
from datetime import date as Date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (NotFoundError, bf_first_round, bf_project_firms, bf_project_investors,
                     bf_scan_firms, bf_scan_investors)
from conftest import deal, edge_names, random_deals

from vcnet.graph import (BOTH, FIRM, INVESTOR, build_bipartite, first_rounds,
                         project_firms, project_investors)
from vcnet.ingest import DealRecord

_DAY0 = Date(2000, 1, 1).toordinal()


@st.composite
def _deal_sets(draw):
    """A window and up to 16 deals among 4 firms and 3 investors over about 16 years.

    Day offsets favour 0 and multiples of the window's exact-day gap and
    one day past it, so same-day pairs and pairs exactly ``window * 365.25``
    days apart (whole days when the window is a multiple of 4) occur
    often. Firm ``I0`` is also an investor, and round ids repeat across
    firms.
    """
    window = draw(st.integers(1, 12))
    gap = int(window * 365.25)
    offsets = st.one_of(st.integers(0, 6000), st.sampled_from([0, gap, gap + 1, 2 * gap]))
    deals = [DealRecord(draw(st.sampled_from(["F0", "F1", "F2", "I0"])),
                        draw(st.sampled_from(["I0", "I1", "I2"])),
                        f"R{draw(st.integers(0, 2))}",
                        Date.fromordinal(_DAY0 + draw(offsets)), 1)
             for _ in range(draw(st.integers(0, 16)))]
    return deals, window


def _assert_adjacency(pg, edges):
    """``pg``'s dense adjacency, neighbour lists, row offsets and degrees are those of
    the node-id pairs ``edges``, rows and columns in ``pg.nodes`` order."""
    pos = {v: i for i, v in enumerate(pg.nodes)}
    expected = np.zeros((len(pg), len(pg)))
    for u, v in edges:
        expected[pos[u], pos[v]] = expected[pos[v], pos[u]] = 1.0
    assert pg.adjacency.dtype == np.float64 and np.array_equal(pg.adjacency, expected)
    rows, cols = np.nonzero(expected)  # row by row, each row's columns ascending
    assert pg.rows.tolist() == rows.tolist() and pg.cols.tolist() == cols.tolist()
    degrees = expected.sum(axis=1).astype(int)
    assert pg.degrees.tolist() == degrees.tolist()
    assert pg.indptr.tolist() == [0, *np.cumsum(degrees).tolist()]


def _assert_projection(pg, nodes, edges):
    """``pg`` has the oracle's nodes and edges, in order, and its adjacency."""
    assert pg.nodes == nodes
    assert edge_names(pg) == edges
    assert pg.n_edges() == len(edges)
    _assert_adjacency(pg, edges)


class TestBuildBipartite:
    def test_empty(self):
        g = build_bipartite([])
        assert len(g) == 0 and g.min_year is None
        assert list(g.years()) == []

    def test_parallel_edges_and_cumulative_snapshots(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2003-05-01"),
                             deal("f1", "i1", "r2", "2004-05-01")])
        assert len(g) == 2
        assert len(g.snapshot_deals(2003)) == 1
        assert len(g.snapshot_deals(2004)) == 2
        assert g.roles == {"f1": FIRM, "i1": INVESTOR}

    def test_dual_role_node(self):
        g = build_bipartite([deal("x", "i1", "r1", "2003-05-01"),
                             deal("f2", "x", "r9", "2005-05-01")])
        assert g.roles["x"] == BOTH

    def test_snapshot_monotone(self):
        deals = random_deals(np.random.default_rng(5), 60)
        g = build_bipartite(deals)
        prev = set()
        for year in g.years():
            snap = {(d.investor_id, d.firm_id, d.date, d.round_id, d.amount)
                    for d in g.snapshot_deals(year)}
            assert prev <= snap
            prev = snap


class TestProjectFirms:
    def test_window_excludes_distant_pair(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2001-01-01"),
                             deal("f2", "i1", "r2", "2010-01-01")])
        pg = project_firms(g, 2010, 7)
        assert edge_names(pg) == []
        assert set(pg.nodes) == {"f1", "f2"}

    def test_window_includes_near_pair(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2001-01-01"),
                             deal("f2", "i1", "r2", "2006-01-01")])
        pg = project_firms(g, 2006, 7)
        assert edge_names(pg) == [("f1", "f2")]

    def test_common_investor_triangle(self, ):
        g = build_bipartite([deal(f, "i1", f + "-r", "2005-03-01") for f in ("a", "b", "c")])
        pg = project_firms(g, 2005, 7)
        assert edge_names(pg) == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_snapshot_limits_deals(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2001-01-01"),
                             deal("f2", "i1", "r2", "2006-01-01")])
        pg = project_firms(g, 2004, 7)
        assert edge_names(pg) == []
        assert set(pg.nodes) == {"f1"}

    def test_out_of_range_year_warns_and_returns_empty(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2001-01-01")])
        with pytest.warns(UserWarning):
            pg = project_firms(g, 1990, 7)
        assert len(pg) == 0 and pg.n_edges() == 0


class TestProjectInvestors:
    def test_same_round_links(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2005-01-01"),
                             deal("f1", "i2", "r1", "2005-01-01")])
        assert edge_names(project_investors(g, 2005)) == [("i1", "i2")]

    def test_different_rounds_do_not_link(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2005-01-01"),
                             deal("f1", "i2", "r2", "2006-01-01")])
        assert edge_names(project_investors(g, 2006)) == []

    def test_three_investor_round_is_triangle(self):
        g = build_bipartite([deal("f1", i, "r1", "2005-01-01") for i in ("i1", "i2", "i3")])
        assert edge_names(project_investors(g, 2005)) == [
            ("i1", "i2"), ("i1", "i3"), ("i2", "i3")]

    def test_round_ids_are_firm_scoped(self):
        # same round_id string under different firms must not link investors
        g = build_bipartite([deal("f1", "i1", "rA", "2005-01-01"),
                             deal("f2", "i2", "rA", "2005-01-01")])
        assert edge_names(project_investors(g, 2005)) == []


class TestProjectionOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_firm_projection_matches_pair_enumeration(self, seed):
        deals = random_deals(np.random.default_rng(seed), 50)
        g = build_bipartite(deals)
        for year in (2004, 2008, 2012):
            for window in (5, 7, 10):
                pg = project_firms(g, year, window)
                nodes, edges = bf_scan_firms(deals, year, window)
                assert set(pg.nodes) == nodes
                assert edge_names(pg) == sorted(edges)

    @pytest.mark.parametrize("seed", range(12))
    def test_investor_projection_matches_pair_enumeration(self, seed):
        deals = random_deals(np.random.default_rng(seed), 50)
        g = build_bipartite(deals)
        for year in (2004, 2008, 2012):
            pg = project_investors(g, year)
            nodes, edges = bf_scan_investors(deals, year)
            assert set(pg.nodes) == nodes
            assert edge_names(pg) == sorted(edges)

    @pytest.mark.parametrize("seed", range(8))
    def test_window_monotone(self, seed):
        deals = random_deals(np.random.default_rng(100 + seed), 60)
        g = build_bipartite(deals)
        e5 = set(edge_names(project_firms(g, 2012, 5)))
        e7 = set(edge_names(project_firms(g, 2012, 7)))
        e10 = set(edge_names(project_firms(g, 2012, 10)))
        assert e5 <= e7 <= e10

    @pytest.mark.parametrize("seed", range(8))
    def test_projection_snapshots_monotone(self, seed):
        deals = random_deals(np.random.default_rng(200 + seed), 60)
        g = build_bipartite(deals)
        prev_f, prev_i = set(), set()
        for year in g.years():
            ef = set(edge_names(project_firms(g, year, 7)))
            ei = set(edge_names(project_investors(g, year)))
            assert prev_f <= ef and prev_i <= ei
            prev_f, prev_i = ef, ei


class TestProjectionSlices:
    """Every snapshot sliced from the link tables equals the per-snapshot pair loops."""

    @given(_deal_sets())
    @example(([deal("I0", "I1", "R0", "2001-03-01"), deal("F0", "I1", "R0", "2001-03-01"),
               deal("F1", "I1", "R1", "2005-03-01"), deal("F2", "I0", "R0", "2001-03-01"),
               deal("F2", "I1", "R0", "2001-03-01"), deal("F0", "I2", "R0", "2001-03-01"),
               deal("F0", "I2", "R0", "2003-06-01")], 4))
    @settings(max_examples=200, deadline=None)
    def test_sliced_projections_equal_pair_loops(self, case):
        deals, window = case
        g = build_bipartite(deals)
        for year in range(1998, 2019):  # the deals fall in 2000-2016
            out_of_range = g.min_year is None or not g.min_year <= year <= g.max_year
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                firms, investors = project_firms(g, year, window), project_investors(g, year)
            assert len(caught) == 2 * out_of_range
            _assert_projection(firms, *bf_project_firms(g, year, window))
            _assert_projection(investors, *bf_project_investors(g, year))

    def test_deals_exactly_the_window_apart_link(self):
        # As in the explicit example above: a dual-role node, and deals
        # exactly 4 * 365.25 = 1461 days apart (2001-03-01 to 2005-03-01).
        g = build_bipartite([deal("I0", "I1", "R0", "2001-03-01"),
                             deal("F1", "I1", "R1", "2005-03-01"),
                             deal("F2", "I0", "R0", "2001-03-01")])
        assert g.roles["I0"] == BOTH
        assert (Date(2005, 3, 1) - Date(2001, 3, 1)).days == 4 * 365.25
        assert edge_names(project_firms(g, 2005, 4)) == [("F1", "I0")]
        assert edge_names(project_firms(g, 2005, 3)) == []


class TestProjectionArrays:
    """The integer-indexed views every measure reads are shared and read-only."""

    @pytest.mark.parametrize("layer", [FIRM, INVESTOR])
    def test_shared_arrays_read_only_and_built_once(self, layer):
        deals = random_deals(np.random.default_rng(31), 60)
        g = build_bipartite(deals)
        pg = project_firms(g, 2010, 7) if layer == FIRM else project_investors(g, 2010)
        assert pg.n_edges() > 0
        shared = {"rows": pg.rows, "cols": pg.cols, "indptr": pg.indptr,
                  "degrees": pg.degrees, "adjacency": pg.adjacency, "dist": pg.dist,
                  "labels": pg.labels}
        assert isinstance(pg.components, tuple)
        for c, (nodes, edges) in enumerate(pg.components):
            shared[f"components[{c}].nodes"], shared[f"components[{c}].edges"] = nodes, edges
        for name, array in shared.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[...] = 0
        assert pg.dist is pg.dist and pg.labels is pg.labels and pg.components is pg.components
        assert pg.adjacency is pg.adjacency and pg.degrees is pg.degrees
        assert pg.rows is pg.rows and pg.cols is pg.cols and pg.indptr is pg.indptr

    @pytest.mark.parametrize("layer", [FIRM, INVESTOR])
    def test_adjacency_follows_node_order(self, layer):
        deals = random_deals(np.random.default_rng(32), 60)
        g = build_bipartite(deals)
        pg = project_firms(g, 2012, 7) if layer == FIRM else project_investors(g, 2012)
        assert pg.n_edges() > 0
        _assert_adjacency(pg, edge_names(pg))


def _first_round(g, firm):
    """The package's first round of ``firm``, checked against the oracle."""
    fr = first_rounds(g)[firm]
    assert fr == bf_first_round(g, firm)
    return fr


class TestFirstRound:
    def test_single_deal(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2004-05-01", 500)])
        fr = _first_round(g, "f1")
        assert fr.round_id == "r1" and fr.amount_total == 500
        assert fr.investors == {"i1"}

    def test_earliest_round_wins(self):
        g = build_bipartite([deal("f1", "i1", "rMay", "2004-05-01"),
                             deal("f1", "i2", "rJun", "2004-06-01")])
        assert _first_round(g, "f1").round_id == "rMay"

    def test_tie_broken_by_round_id(self):
        g = build_bipartite([deal("f1", "i1", "rB", "2004-05-01"),
                             deal("f1", "i2", "rA", "2004-05-01")])
        assert _first_round(g, "f1").round_id == "rA"

    def test_round_total_includes_later_deals_of_same_round(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2004-05-01", 100),
                             deal("f1", "i2", "r1", "2004-07-01", 50),
                             deal("f1", "i3", "r2", "2004-08-01", 999)])
        fr = _first_round(g, "f1")
        assert fr.amount_total == 150
        assert fr.investors == {"i1", "i2"}
        assert fr.date.isoformat() == "2004-05-01"

    def test_unknown_firm_raises(self):
        g = build_bipartite([deal("f1", "i1", "r1", "2004-05-01")])
        assert "nope" not in first_rounds(g)
        with pytest.raises(NotFoundError):
            bf_first_round(g, "nope")

    def test_first_rounds_matches_single(self):
        deals = random_deals(np.random.default_rng(3), 40)
        g = build_bipartite(deals)
        table = first_rounds(g)
        for firm in {d.firm_id for d in deals}:
            assert table[firm] == bf_first_round(g, firm)

    def test_first_rounds_scanned_once_per_graph_and_read_only(self):
        g = build_bipartite(random_deals(np.random.default_rng(4), 30))
        table = first_rounds(g)
        assert first_rounds(g) is table
        with pytest.raises(TypeError):
            table["f_new"] = table[next(iter(table))]
