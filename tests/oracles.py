"""Independent brute-force reference implementations for the test suite.

Everything here is deliberately naive: BFS over dicts, explicit path
enumeration, dense eigen/linear solves, per-pair current flows. These
are the second route of every dual-route check and must not share code
with the package implementations. The ``csr_*`` measures are the
package's formulas with scipy's sparse products, whose summation order
the package's products must keep or stay within a stated bound of.
"""

from __future__ import annotations

import itertools
import warnings
from collections import deque
from fractions import Fraction
from math import comb

import numpy as np
from scipy.special import expit, fdtrc, stdtr


def adj_from_pg(pg):
    nodes = list(pg.nodes)
    adj = {v: set() for v in nodes}
    for i, j in pg.pairs.tolist():
        adj[nodes[i]].add(nodes[j])
        adj[nodes[j]].add(nodes[i])
    return nodes, adj


def bf_distances(nodes, adj, source):
    dist = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return dist


def bf_components(nodes, adj):
    seen = set()
    comps = []
    for v in nodes:
        if v in seen:
            continue
        comp = sorted(bf_distances(nodes, adj, v))
        seen.update(comp)
        comps.append(comp)
    return comps


def bf_degree_centrality(pg):
    nodes, adj = adj_from_pg(pg)
    n = len(nodes)
    if n <= 1:
        return {v: 0.0 for v in nodes}
    return {v: len(adj[v]) / (n - 1) for v in nodes}


def bf_average_neighbor_degree(pg):
    nodes, adj = adj_from_pg(pg)
    out = {}
    for v in nodes:
        out[v] = sum(len(adj[u]) for u in adj[v]) / len(adj[v]) if adj[v] else 0.0
    return out


def bf_clustering(pg):
    nodes, adj = adj_from_pg(pg)
    out = {}
    for v in nodes:
        k = len(adj[v])
        if k < 2:
            out[v] = 0.0
            continue
        tri = sum(1 for a, b in itertools.combinations(sorted(adj[v]), 2) if b in adj[a])
        out[v] = tri / (k * (k - 1) / 2)
    return out


def bf_core_number(pg):
    nodes, adj = adj_from_pg(pg)
    out = {}
    for v in nodes:
        k = 0
        while True:
            # peel everything of degree < k+1 and see whether v survives
            alive = set(nodes)
            changed = True
            while changed:
                changed = False
                for u in sorted(alive):
                    if sum(1 for w in adj[u] if w in alive) < k + 1:
                        alive.discard(u)
                        changed = True
            if v in alive:
                k += 1
            else:
                break
        out[v] = k
    return out


def _all_paths(adj, s, t, max_len):
    """All simple paths from s to t, up to max_len edges."""
    paths = []
    stack = [(s, [s])]
    while stack:
        node, path = stack.pop()
        if node == t:
            paths.append(path)
            continue
        if len(path) > max_len:
            continue
        for w in sorted(adj[node]):
            if w not in path:
                stack.append((w, path + [w]))
    return paths


def bf_betweenness(pg):
    """Shortest-path betweenness by explicit path enumeration."""
    nodes, adj = adj_from_pg(pg)
    n = len(nodes)
    out = {v: 0.0 for v in nodes}
    if n < 3:
        return out
    for s, t in itertools.combinations(nodes, 2):
        dist = bf_distances(nodes, adj, s)
        if t not in dist:
            continue
        shortest = [p for p in _all_paths(adj, s, t, dist[t]) if len(p) - 1 == dist[t]]
        sigma = len(shortest)
        for v in nodes:
            if v in (s, t):
                continue
            through = sum(1 for p in shortest if v in p)
            out[v] += through / sigma
    scale = 2.0 / ((n - 1) * (n - 2))
    return {v: out[v] * scale for v in nodes}


def bf_brandes_betweenness(pg):
    """Shortest-path betweenness by per-source BFS and Brandes accumulation.

    Path counts are exact Python integers. Unlike ``bf_betweenness`` it
    runs in polynomial time, so it checks graphs of a few hundred nodes.
    """
    nodes, adj = adj_from_pg(pg)
    n = len(nodes)
    out = {v: 0.0 for v in nodes}
    if n < 3:
        return out
    for s in nodes:
        dist, sigma, preds, order = {s: 0}, {s: 1}, {s: []}, [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if w not in dist:
                    dist[w], sigma[w], preds[w] = dist[u] + 1, 0, []
                    queue.append(w)
                    order.append(w)
                if dist[w] == dist[u] + 1:
                    sigma[w] += sigma[u]
                    preds[w].append(u)
        delta = {v: 0.0 for v in order}
        for w in reversed(order):
            for u in preds[w]:
                delta[u] += sigma[u] / sigma[w] * (1.0 + delta[w])
            if w != s:
                out[w] += delta[w]
    scale = 1.0 / ((n - 1) * (n - 2))  # each unordered pair is counted from both ends
    return {v: out[v] * scale for v in nodes}


def bf_closeness(pg):
    nodes, adj = adj_from_pg(pg)
    n = len(nodes)
    out = {}
    for v in nodes:
        dist = bf_distances(nodes, adj, v)
        reach = {u: d for u, d in dist.items() if u != v}
        if not reach:
            out[v] = 0.0
        else:
            r = len(reach)
            out[v] = (r / (n - 1)) * (r / sum(reach.values()))
    return out


def bf_harmonic(pg):
    nodes, adj = adj_from_pg(pg)
    n = len(nodes)
    out = {}
    for v in nodes:
        if n <= 1:
            out[v] = 0.0
            continue
        dist = bf_distances(nodes, adj, v)
        out[v] = sum(1.0 / d for u, d in dist.items() if u != v) / (n - 1)
    return out


def bf_eigenvector(pg):
    """Dense eigen-decomposition per component, unit norm per component."""
    nodes, adj = adj_from_pg(pg)
    out = {v: 0.0 for v in nodes}
    for comp in bf_components(nodes, adj):
        if len(comp) < 2:
            continue
        idx = {v: i for i, v in enumerate(comp)}
        A = np.zeros((len(comp), len(comp)))
        for v in comp:
            for u in adj[v]:
                A[idx[v], idx[u]] = 1.0
        w, vecs = np.linalg.eigh(A)
        vec = vecs[:, int(np.argmax(w))]
        if vec.sum() < 0:
            vec = -vec
        vec = np.abs(vec)  # Perron vector of a connected component is positive
        vec /= np.linalg.norm(vec)
        for v in comp:
            out[v] = float(vec[idx[v]])
    return out


def bf_pagerank(pg, damping=0.85):
    """Dense linear solve of the teleporting-walk fixed point."""
    nodes, adj = adj_from_pg(pg)
    n = len(nodes)
    if n == 0:
        return {}
    idx = {v: i for i, v in enumerate(nodes)}
    M = np.zeros((n, n))  # M[u, v] = P(walk u -> v)
    for v in nodes:
        if adj[v]:
            for u in adj[v]:
                M[idx[v], idx[u]] = 1.0 / len(adj[v])
        else:
            M[idx[v], :] = 1.0 / n  # dangling: teleport uniformly
    p = np.linalg.solve(np.eye(n) - damping * M.T, np.full(n, (1.0 - damping) / n))
    return {v: float(p[idx[v]]) for v in nodes}


def bf_current_flow_betweenness(pg):
    """Per-pair dense current flows via the Laplacian pseudo-inverse."""
    nodes, adj = adj_from_pg(pg)
    n = len(nodes)
    out = {v: 0.0 for v in nodes}
    if n < 3:
        return out
    for comp in bf_components(nodes, adj):
        nc = len(comp)
        if nc < 3:
            continue
        idx = {v: i for i, v in enumerate(comp)}
        L = np.zeros((nc, nc))
        edges = []
        for v in comp:
            for u in adj[v]:
                if idx[u] > idx[v]:
                    edges.append((idx[v], idx[u]))
                    L[idx[v], idx[v]] += 1
                    L[idx[u], idx[u]] += 1
                    L[idx[v], idx[u]] -= 1
                    L[idx[u], idx[v]] -= 1
        pinv = np.linalg.pinv(L)
        for s, t in itertools.combinations(range(nc), 2):
            b = np.zeros(nc)
            b[s], b[t] = 1.0, -1.0
            pot = pinv @ b
            for v in range(nc):
                if v in (s, t):
                    continue
                flow = sum(abs(pot[a] - pot[b2]) for a, b2 in edges if v in (a, b2))
                out[comp[v]] += 0.5 * flow
    scale = 2.0 / ((n - 1) * (n - 2))
    return {v: out[v] * scale for v in nodes}


def csr_adjacency(pg):
    """scipy's CSR adjacency of ``pg``, built from ``pg.pairs``: rows and columns in
    ``nodes`` order, each row's column indices ascending, every stored value 1.0."""
    import scipy.sparse as sp
    n = len(pg)
    u, v = pg.pairs.T
    A = sp.csr_matrix((np.ones(2 * u.size), (np.concatenate([u, v]), np.concatenate([v, u]))),
                      shape=(n, n))
    A.sort_indices()
    return A


def csgraph_current_flow_betweenness(pg):
    """``centrality.newman_betweenness``'s formula on scipy's Laplacian and components.

    The same arithmetic step for step, with the Laplacian from
    ``csgraph.laplacian`` and the components from
    ``csgraph.connected_components``, so the package's own Laplacian and
    labels must give equal values, not close ones.
    """
    from scipy.sparse import csgraph, triu

    from vcnet.centrality import _EDGE_BLOCK, _PINV_RCOND
    n = len(pg)
    values = np.zeros(n)
    if n >= 3:
        A = csr_adjacency(pg)
        labels = csgraph.connected_components(A, directed=False)[1]
        for c in range(labels.max() + 1):
            comp = np.flatnonzero(labels == c)
            nc = comp.size
            if nc < 3:
                continue
            sub = A[np.ix_(comp, comp)]
            pinv = np.linalg.pinv(csgraph.laplacian(sub).toarray(), rcond=_PINV_RCOND)
            upper = triu(sub, k=1).tocoo()
            u, v = upper.row, upper.col
            coef = 2.0 * np.arange(nc) - nc + 1.0
            per_edge = np.concatenate([
                np.sort(pinv[u[k:k + _EDGE_BLOCK]] - pinv[v[k:k + _EDGE_BLOCK]], axis=1) @ coef
                for k in range(0, u.size, _EDGE_BLOCK)])
            through = 0.5 * (np.bincount(u, per_edge, nc) + np.bincount(v, per_edge, nc))
            through -= (nc - 1) / 2.0
            values[comp] = through * 2.0 / ((n - 1) * (n - 2))
    return {v: float(values[i]) for i, v in enumerate(pg.nodes)}


def bf_voterank(pg):
    """Re-derived voting loop in exact rational arithmetic."""
    nodes, adj = adj_from_pg(pg)
    n = len(nodes)
    if n == 0:
        return {}
    n_edges = sum(len(a) for a in adj.values()) // 2
    step = Fraction(n, 2 * n_edges) if n_edges else Fraction(0)  # 1 / mean degree
    ability = {v: Fraction(1) for v in nodes}
    elected = []
    pool = set(nodes)
    while pool:
        scores = {v: sum((ability[u] for u in adj[v]), Fraction(0)) for v in pool}
        best = min(pool, key=lambda v: (-scores[v], v))
        if scores[best] <= 0:
            break
        elected.append(best)
        pool.discard(best)
        ability[best] = Fraction(0)
        for u in adj[best]:
            ability[u] = max(Fraction(0), ability[u] - step)
    ranks = {v: i + 1 for i, v in enumerate(elected)}
    for v in nodes:
        ranks.setdefault(v, len(elected) + 1)
    return ranks


# ---------------------------------------------------------------------------
# The package's measure formulas with every adjacency product a scipy CSR
# product: each row's entries summed one at a time in ascending column order
# ---------------------------------------------------------------------------

def csr_average_neighbor_degree(pg):
    A = csr_adjacency(pg)
    deg = np.diff(A.indptr)
    return np.divide(A @ deg, deg, out=np.zeros(len(pg)), where=deg > 0)


def csr_clustering(pg):
    A = csr_adjacency(pg)
    k = np.diff(A.indptr)
    twice_triangles = np.asarray((A @ A).multiply(A).sum(axis=1)).ravel()
    return np.divide(twice_triangles, k * (k - 1), out=np.zeros(len(pg)), where=k >= 2)


def csr_core_number(pg):
    A = csr_adjacency(pg)
    deg = np.diff(A.indptr).astype(np.int64)
    alive = np.ones(len(pg), dtype=bool)
    core = np.zeros(len(pg), dtype=np.int64)
    k = 0
    while alive.any():
        peeled = alive & (deg <= k)
        if not peeled.any():
            k = int(deg[alive].min())
            continue
        core[peeled] = k
        alive &= ~peeled
        deg -= (A @ peeled).astype(np.int64)
    return core


def csr_betweenness(pg):
    """Brandes accumulation by blocks of ``SOURCE_BLOCK`` sources over hop counts
    from ``csgraph.shortest_path``, each level one CSR product."""
    from scipy.sparse import csgraph

    from vcnet.graph import SOURCE_BLOCK
    n = len(pg)
    if n < 3:
        return np.zeros(n)
    A = csr_adjacency(pg)
    hops = csgraph.shortest_path(A, directed=False, unweighted=True)
    hops[np.isinf(hops)] = -1
    bc = np.zeros(n)
    for lo in range(0, n, SOURCE_BLOCK):
        D = hops[:, lo:lo + SOURCE_BLOCK]
        depth = int(D.max())
        level = [D == d for d in range(depth + 1)]
        sigma = level[0].astype(float)
        for d in range(1, depth + 1):
            sigma += np.where(level[d], A @ np.where(level[d - 1], sigma, 0.0), 0.0)
        delta = np.zeros_like(sigma)
        for d in range(depth, 1, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level[d])
            delta += np.where(level[d - 1], sigma * (A @ share), 0.0)
        bc += delta.sum(axis=1)
    return bc / ((n - 1) * (n - 2))


def dense_path_measures(pg):
    """(betweenness, closeness, harmonic, labels) from two traversals over a dense
    n x n hop matrix, the route the one shortest-path pass must match byte for byte.

    First a float32 breadth-first search of hop counts by blocks of
    ``SOURCE_BLOCK`` sources (-1 unreachable, in the smallest signed type that
    holds -n); then betweenness walks the levels ``D == d`` of the matrix again
    in float64 to count paths, before Brandes' backward accumulation; closeness,
    harmonic and the labels read the matrix row by row.
    """
    from vcnet.graph import SOURCE_BLOCK
    n = len(pg)
    A = pg.adjacency
    A32 = A.astype(np.float32)
    dist = np.empty((n, n), dtype=np.min_scalar_type(-max(n, 1)))
    for lo in range(0, n, SOURCE_BLOCK):
        sources = np.arange(lo, min(lo + SOURCE_BLOCK, n))
        block = np.full((n, sources.size), -1, dtype=dist.dtype)
        block[sources, sources - lo] = 0
        unseen = block < 0
        frontier = (~unseen).astype(np.float32)
        for level in range(1, n):
            reached = (A32 @ frontier).astype(bool) & unseen
            if not reached.any():
                break
            block[reached] = level
            unseen &= ~reached
            frontier = reached.astype(np.float32)
        dist[lo:lo + sources.size] = block.T
    bc = np.zeros(n)
    for lo in range(0, n if n >= 3 else 0, SOURCE_BLOCK):
        D = dist[:, lo:lo + SOURCE_BLOCK]
        depth = int(D.max())
        level = [D == d for d in range(depth + 1)]
        sigma = level[0].astype(float)
        for d in range(1, depth + 1):
            sigma += np.where(level[d], A @ np.where(level[d - 1], sigma, 0.0), 0.0)
        delta = np.zeros_like(sigma)
        for d in range(depth, 1, -1):
            share = np.divide(1.0 + delta, sigma, out=np.zeros_like(sigma), where=level[d])
            delta += np.where(level[d - 1], sigma * (A @ share), 0.0)
        bc += delta.sum(axis=1)
    betweenness = bc / ((n - 1) * (n - 2)) if n >= 3 else np.zeros(n)
    reach = dist > 0
    r = reach.sum(axis=1)
    total = np.where(reach, dist, 0.0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        closeness = np.where(r > 0, (r / (n - 1)) * (r / total), 0.0)
    harmonic = np.array([(1.0 / row[row > 0]).sum() for row in dist]) / max(n - 1, 1)
    if n == 0:
        labels = np.zeros(0, dtype=np.intp)
    else:
        labels = np.unique((dist >= 0).argmax(axis=1), return_inverse=True)[1]
    return betweenness, closeness, harmonic, labels


def csr_eigenvector(pg, tol=1e-10, max_iter=10000):
    """Power iteration on A + I per ``csgraph.connected_components`` component."""
    from scipy.sparse import csgraph
    A = csr_adjacency(pg)
    values = np.zeros(len(pg))
    labels = csgraph.connected_components(A, directed=False)[1]
    for c in range(labels.max(initial=-1) + 1):
        comp = np.flatnonzero(labels == c)
        if comp.size < 2:
            continue
        sub = A[np.ix_(comp, comp)]
        x = np.full(comp.size, 1.0 / np.sqrt(comp.size))
        for _ in range(max_iter):
            y = sub @ x + x
            y /= np.linalg.norm(y)
            residual = float(np.abs(y - x).max())
            x = y
            if residual < tol:
                break
        else:
            raise AssertionError("eigenvector power iteration did not converge")
        values[comp] = x
    return values


def csr_pagerank(pg, damping=0.85, tol=1e-12, max_iter=10000):
    n = len(pg)
    if n == 0:
        return np.zeros(0)
    A = csr_adjacency(pg)
    deg = np.diff(A.indptr).astype(float)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        spread = A @ (p * inv_deg)
        d_mass = float(p[dangling].sum())
        p_next = (1.0 - damping) / n + damping * (spread + d_mass / n)
        residual = float(np.abs(p_next - p).sum())
        p = p_next
        if residual < tol:
            break
    else:
        raise AssertionError("pagerank power iteration did not converge")
    return p


def csr_voterank(pg):
    """The integer-numerator voting loop with every round's scores one full product."""
    n = len(pg)
    A = csr_adjacency(pg).astype(np.int64)
    num = np.full(n, 2 * len(pg.pairs), dtype=np.int64)
    selectable = np.ones(n, dtype=bool)
    order = []
    while selectable.any():
        scores = A @ num
        scores[~selectable] = -1
        best = int(np.argmax(scores))
        if scores[best] <= 0:
            break
        order.append(best)
        selectable[best] = False
        num[best] = 0
        nbrs = A.indices[A.indptr[best]:A.indptr[best + 1]]
        num[nbrs] = np.maximum(0, num[nbrs] - n)
    ranks = np.full(n, len(order) + 1, dtype=np.int64)
    ranks[order] = np.arange(1, len(order) + 1)
    return ranks


#: The CSR route of every measure that multiplies by the adjacency, keyed by the
#: name of the package function it reproduces.
CSR_MEASURES = {
    "average_neighbor_degree": csr_average_neighbor_degree,
    "clustering": csr_clustering,
    "core_number": csr_core_number,
    "betweenness": csr_betweenness,
    "eigenvector": csr_eigenvector,
    "pagerank": csr_pagerank,
    "voterank": csr_voterank,
}


ALL_MEASURE_ORACLES = {
    "degree_centrality": bf_degree_centrality,
    "average_neighbor_degree": bf_average_neighbor_degree,
    "betweenness": bf_betweenness,
    "newman_betweenness": bf_current_flow_betweenness,
    "closeness_centrality": bf_closeness,
    "harmonic_centrality": bf_harmonic,
    "eigenvector_centrality": bf_eigenvector,
    "pagerank": bf_pagerank,
    "clustering": bf_clustering,
    "core_number": bf_core_number,
    "voterank": bf_voterank,
}


# ---------------------------------------------------------------------------
# Projection oracles: exhaustive deal-pair enumeration, and per-snapshot
# pair loops over each investor's portfolio and each round's members
# ---------------------------------------------------------------------------

def bf_scan_firms(deals, snapshot_year, window_years):
    """Node and edge sets from scanning every ordered pair of deals."""
    max_gap = window_years * 365.25
    edges = set()
    for d1 in deals:
        for d2 in deals:
            if d1 is d2 or d1.investor_id != d2.investor_id or d1.firm_id == d2.firm_id:
                continue
            if d1.date.year > snapshot_year or d2.date.year > snapshot_year:
                continue
            if abs((d1.date - d2.date).days) <= max_gap:
                edges.add(tuple(sorted((d1.firm_id, d2.firm_id))))
    nodes = {d.firm_id for d in deals if d.date.year <= snapshot_year}
    return nodes, edges


def bf_scan_investors(deals, snapshot_year):
    edges = set()
    for d1 in deals:
        for d2 in deals:
            if d1 is d2 or d1.investor_id == d2.investor_id:
                continue
            if d1.firm_id != d2.firm_id or d1.round_id != d2.round_id:
                continue
            if d1.date.year > snapshot_year or d2.date.year > snapshot_year:
                continue
            edges.add(tuple(sorted((d1.investor_id, d2.investor_id))))
    nodes = {d.investor_id for d in deals if d.date.year <= snapshot_year}
    return nodes, edges


def bf_project_firms(g, snapshot_year, window_years):
    """Sorted nodes and sorted edges of one snapshot, from its deals alone.

    Groups the snapshot's deals by investor and tests every pair of its
    firms; empty outside the data range.
    """
    if g.min_year is None or not g.min_year <= snapshot_year <= g.max_year:
        return (), []
    deals = g.snapshot_deals(snapshot_year)
    max_gap_days = window_years * 365.25
    by_investor = {}
    for d in deals:
        by_investor.setdefault(d.investor_id, {}).setdefault(d.firm_id, []).append(d.date)
    edges = set()
    for portfolio in by_investor.values():
        firms = sorted(portfolio)
        for i, f1 in enumerate(firms):
            d1s = portfolio[f1]
            for f2 in firms[i + 1:]:
                if any(abs((a - b).days) <= max_gap_days for a in d1s for b in portfolio[f2]):
                    edges.add((f1, f2))
    nodes = tuple(sorted({d.firm_id for d in deals}))
    return nodes, sorted(edges)


def bf_project_investors(g, snapshot_year):
    """As ``bf_project_firms``, for co-membership of a firm's round."""
    if g.min_year is None or not g.min_year <= snapshot_year <= g.max_year:
        return (), []
    deals = g.snapshot_deals(snapshot_year)
    by_round = {}
    for d in deals:
        by_round.setdefault((d.firm_id, d.round_id), set()).add(d.investor_id)
    edges = set()
    for members in by_round.values():
        ordered = sorted(members)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1:]:
                edges.add((u, v))
    nodes = tuple(sorted({d.investor_id for d in deals}))
    return nodes, sorted(edges)


# ---------------------------------------------------------------------------
# First round of one firm: scan every deal of the graph
# ---------------------------------------------------------------------------

class NotFoundError(LookupError):
    """The firm asked of ``bf_first_round`` has no deals."""


def bf_first_round(g, firm):
    """The firm's earliest funding round (ties broken by round_id).

    The round whose earliest deal is the firm's first recorded
    investment, with the total amount and the full investor set of that
    round (including deals in it dated later).
    """
    from vcnet.graph import FirstRound

    rounds = {}
    for d in g.edges:
        if d.firm_id == firm:
            rounds.setdefault(d.round_id, []).append(d)
    if not rounds:
        raise NotFoundError(f"firm {firm!r} has no deals")
    best = min(rounds, key=lambda rid: (min(d.date for d in rounds[rid]), rid))
    deals = rounds[best]
    return FirstRound(
        round_id=best,
        date=min(d.date for d in deals),
        amount_total=sum(d.amount for d in deals),
        investors=frozenset(d.investor_id for d in deals),
    )


# ---------------------------------------------------------------------------
# Model selection: one full single fit per configuration
# ---------------------------------------------------------------------------

def bf_select_model(kind, response, fm, configs, controls=None, control_columns=None):
    """Fit configurations one at a time and rank them by exact score order.

    The reference for ``select_model``'s chunked engine. It calls the
    package's single fits (``fit_logistic``/``fit_linear``, which the
    regression tests check against analytic and normal-equation oracles)
    once per configuration, so it shares none of the engine's grouping,
    stacking, rank masks, failure bookkeeping or tie rule.
    Returns ``(results, ranked)``: ``results[i]`` is ``(config_id,
    covariates, score, covariate coefficients, error)`` and ``ranked``
    lists config ids by descending score, exact ties by config id.
    """
    from vcnet.errors import VcnetError
    from vcnet.regress import fit_linear, fit_logistic

    results = []
    for i, combo in enumerate(configs):
        X = fm.select(combo)
        try:
            if kind == "logistic":
                fit = fit_logistic(response, X, list(combo))
                score = fit.log_likelihood if fit.converged else None
                err = None if fit.converged else "did not converge"
            else:
                fit = fit_linear(response, X, controls, list(combo), control_columns)
                score, err = fit.r2, None
        except VcnetError as exc:
            results.append((i, combo, None, None, str(exc)))
            continue
        coef = None if score is None else np.array([fit.coef[fit.columns.index(c)] for c in combo])
        results.append((i, combo, score, coef, err))
    scored = sorted((r for r in results if r[2] is not None), key=lambda r: (-r[2], r[0]))
    return results, [r[0] for r in scored]


def bf_perturbation_sweep(groups, selection):
    """Per-group statistics over one flattened sample per covariate fitted.

    The reference for ``perturbation_sweep``'s column reads. Every scored
    configuration contributes, for each of its covariates, the sample
    ``(group of the covariate, coefficient)``; samples run by config id,
    then in configuration order, and a group's statistics are taken over
    its samples in that order. Returns ``(stats, samples)``: ``stats``
    lists ``(group, mean, sd, n_configs)`` by group id and ``samples``
    maps each group to its coefficients.
    """
    scored = np.flatnonzero(~np.isnan(selection.results["score"]))
    group_of = np.array([groups[c] for c in selection.columns], dtype=np.int64)
    group = group_of[selection.configs[scored]].ravel()
    estimate = selection.results["coef"][scored].ravel()
    stats, samples = [], {}
    for grp in np.unique(group).tolist():
        vals = estimate[group == grp]
        sd = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        stats.append((grp, float(vals.mean()), sd, len(vals)))
        samples[grp] = vals
    return stats, samples


# ---------------------------------------------------------------------------
# Balanced ensemble: one single fit per attempt
# ---------------------------------------------------------------------------

def bf_balanced_ensemble(y, X, n_reps=1000, seed=0, columns=None):
    """``balanced_ensemble`` with one ``fit_logistic`` call per attempt.

    The reference for the stacked replicate blocks: attempts are drawn
    and fitted one at a time until ``n_reps`` converge or ``2 * n_reps``
    attempts were made; any failure of a single fit discards its attempt.
    """
    from vcnet.errors import ConfigError, VcnetError
    from vcnet.regress import BalancedEnsemble, fit_logistic
    from vcnet.seeding import derive_seed

    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    ones = np.flatnonzero(y == 1.0)
    zeros = np.flatnonzero(y == 0.0)
    minority, majority = (ones, zeros) if len(ones) <= len(zeros) else (zeros, ones)
    if len(minority) < X.shape[1] + 1:
        raise ConfigError(
            f"minority class has {len(minority)} rows; need at least {X.shape[1] + 1}")
    fits = []
    discarded = 0
    attempt = 0
    while len(fits) < n_reps and attempt < 2 * n_reps:
        rng = np.random.default_rng(derive_seed(seed, "balanced", attempt))
        attempt += 1
        if len(majority) == len(minority):
            idx = np.sort(np.concatenate([minority, majority]))
        else:
            sub = rng.choice(majority, size=len(minority), replace=False)
            idx = np.sort(np.concatenate([minority, sub]))
        try:
            fit = fit_logistic(y[idx], X[idx], columns)
        except VcnetError:
            discarded += 1
            continue
        if fit.converged:
            fits.append(fit)
        else:
            discarded += 1
    if not fits:
        raise ConfigError("every balanced replicate failed to converge")
    coefs = np.array([f.coef for f in fits])
    sd = (coefs - coefs[0]).std(axis=0, ddof=1) if len(fits) > 1 else np.zeros(coefs.shape[1])
    return BalancedEnsemble(
        columns=fits[0].columns, coefs=coefs, p_values=np.array([f.p for f in fits]),
        coef_mean=coefs.mean(axis=0), coef_sd=sd,
        mean_log_likelihood=float(np.mean([f.log_likelihood for f in fits])),
        mean_pseudo_r2=float(np.mean([f.pseudo_r2 for f in fits])),
        max_pseudo_r2=float(np.max([f.pseudo_r2 for f in fits])),
        n_reps=len(fits), n_discarded=discarded,
    )


# ---------------------------------------------------------------------------
# Linear-model inference: scipy's p-values, exact pivoted rank
# ---------------------------------------------------------------------------

#: How far ``fit_linear``'s t and F p-values may sit from scipy's, relative,
#: over df 1-1000, |t| up to 40 and F up to 1e3.
P_VALUE_RTOL = 1e-10


def scipy_t_p(df, t):
    """Two-sided p-values of t statistics by scipy's ``stdtr``."""
    return 2.0 * stdtr(df, -np.abs(t))


def scipy_f_p(df1, df2, f):
    """Upper-tail p-value of an F statistic by scipy's ``fdtrc``."""
    return float(fdtrc(df1, df2, f))


def bf_collinear_columns(design, names):
    """Columns past the rank of an integer-valued design, by exact pivoted Gram-Schmidt.

    Rational arithmetic, so every rank decision and every tie is exact.
    Each step swaps into place the column of largest squared residual
    norm, the first in the current order on ties (the pivot order of
    LAPACK's ``geqp3``), and projects it out of the columns after it. The
    columns left when no residual is non-zero are named.
    """
    assert (design == np.round(design)).all()
    cols = [[Fraction(int(v)) for v in design[:, j]] for j in range(design.shape[1])]
    order = list(range(len(cols)))
    for k in range(len(cols)):
        sq = [sum(v * v for v in cols[i]) for i in order[k:]]
        if max(sq) == 0:
            return sorted(names[i] for i in order[k:])
        j = k + sq.index(max(sq))
        order[k], order[j] = order[j], order[k]
        pivot = cols[order[k]]
        for i in order[k + 1:]:
            c = sum(a * b for a, b in zip(cols[i], pivot)) / max(sq)
            cols[i] = [a - c * b for a, b in zip(cols[i], pivot)]
    return []


# ---------------------------------------------------------------------------
# Functional k-means: one Lloyd loop per restart
# ---------------------------------------------------------------------------

def bf_lloyd(X, centroids, w, max_iter):
    """Lloyd iterations to an assignment fixed point; empty clusters are
    re-seeded at the point farthest from its current centroid."""
    from vcnet.errors import InvariantError

    k = centroids.shape[0]
    assign = np.full(X.shape[0], -1)
    prev_obj = np.inf
    for _ in range(max_iter):
        d2 = (((X[:, None, :] - centroids[None, :, :]) ** 2) * w).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        obj = float(d2[np.arange(len(X)), new_assign].sum())
        if obj > prev_obj * (1 + 1e-12) + 1e-9:
            raise InvariantError("k-means objective increased across an iteration")
        prev_obj = obj
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        used = set()
        for j in range(k):
            mask = assign == j
            if mask.any():
                centroids[j] = X[mask].mean(axis=0)
            else:
                own = d2[np.arange(len(X)), assign].astype(float)
                if used:
                    own[list(used)] = -np.inf
                far = int(own.argmax())
                used.add(far)
                centroids[j] = X[far]
    return assign, centroids, prev_obj


def bf_functional_kmeans(trajs, k=2, n_init=100, seed=0, log_scale=True, max_iter=500):
    """``functional_kmeans`` with one Lloyd loop per restart, run one at a time.

    The reference for the stacked restart loop: the same seeded initial
    centroids, each restart iterated alone, the best kept by
    ``(objective, restart)``. Returns the package's ``ClusterAssignment``;
    a subsector smaller than k raises the package's warning.
    """
    from vcnet.seeding import derive_seed
    from vcnet.trajectories import HIGH, LOW, ClusterAssignment

    scale = "log1p" if log_scale else "raw"
    if not trajs:
        return ClusterAssignment(0, scale, {}, {}, {}, {})
    window = len(trajs[0].values) - 1
    w = np.ones(window + 1)
    w[0] = w[-1] = 0.5
    ca = ClusterAssignment(window, scale, {}, {}, {}, {})
    by_sub = {}
    for t in trajs:
        by_sub.setdefault(t.subsector, []).append(t)
    for sub in sorted(by_sub):
        group = sorted(by_sub[sub], key=lambda t: t.firm_id)
        X = np.array([t.values for t in group], dtype=float)
        if log_scale:
            X = np.log1p(X)
        if len(group) < k:
            warnings.warn(f"subsector {sub!r} has {len(group)} firms (< k={k}); all assigned LOW")
            for t in group:
                ca.regimes[t.firm_id] = LOW
            continue
        best = None
        for restart in range(n_init):
            rng = np.random.default_rng(derive_seed(seed, "kmeans", sub, restart))
            init_idx = np.sort(rng.choice(len(group), size=k, replace=False))
            assign, centroids, obj = bf_lloyd(X, X[init_idx].copy(), w, max_iter)
            if best is None or (obj, restart) < (best[0], best[1]):
                best = (obj, restart, assign, centroids)
        obj, _, assign, centroids = best
        terminal = centroids[:, -1]
        high_cluster = max(range(k), key=lambda j: (terminal[j], centroids[j].mean(), -j))
        labels = [HIGH if j == high_cluster else LOW for j in range(k)]
        for t, j in zip(group, assign):
            ca.regimes[t.firm_id] = labels[j]
        ca.centroids[sub] = centroids
        ca.cluster_regimes[sub] = labels
        ca.wcss[sub] = obj
    return ca


# ---------------------------------------------------------------------------
# Covariate grouping: pairwise complete linkage, DFS leaf order, union-find cut
# ---------------------------------------------------------------------------

def bf_correlation_dendrogram(fm):
    """``correlation_dendrogram`` recomputing every cluster pair's linkage at every step.

    The linkage of clusters a < b is the largest ``dist[i, j]`` over
    i in a, j in b (that orientation, since ``np.corrcoef`` need not be
    exactly symmetric); ties break on the clusters' smallest leaf names.
    """
    from vcnet.features import FeatureGrouping

    p = len(fm.columns)
    if p == 0:
        return FeatureGrouping([], [])
    corr = np.corrcoef(fm.data, rowvar=False).reshape(p, p)
    dist = 1.0 - np.abs(corr)
    np.fill_diagonal(dist, 0.0)
    dist = np.clip(dist, 0.0, None)

    members = {i: [i] for i in range(p)}
    rep = {i: fm.columns[i] for i in range(p)}
    merges = []

    def linkage(a, b):
        return max(dist[i, j] for i in members[a] for j in members[b])

    for step in range(p - 1):
        active = sorted(members)
        best = None
        for ai, a in enumerate(active):
            for b in active[ai + 1:]:
                d = linkage(a, b)
                lo, hi = sorted((rep[a], rep[b]))
                key = (d, lo, hi)
                if best is None or key < best[0]:
                    best = (key, a, b)
        (d, _, _), a, b = best
        left, right = (a, b) if rep[a] <= rep[b] else (b, a)
        new = p + step
        members[new] = members.pop(a) + members.pop(b)
        rep[new] = min(fm.columns[i] for i in members[new])
        merges.append((step, left, right, float(d)))
    return FeatureGrouping(list(fm.columns), merges)


def bf_leaf_order(fg):
    """Dendrogram leaf order by an explicit depth-first walk, left child first."""
    p = len(fg.leaves)
    if p <= 1:
        return list(fg.leaves)
    children = {p + step: (left, right) for step, left, right, _ in fg.merges}
    order = []
    stack = [p + len(fg.merges) - 1]
    while stack:
        node = stack.pop()
        if node < p:
            order.append(fg.leaves[node])
        else:
            left, right = children[node]
            stack.append(right)
            stack.append(left)
    return order


def bf_cut_groups(fg, k):
    """Covariate -> group after the first p - k merges, by union-find; groups numbered in leaf order."""
    p = len(fg.leaves)
    parent = list(range(2 * p - 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step, left, right, _ in fg.merges[: p - k]:
        new = p + step
        parent[find(left)] = new
        parent[find(right)] = new
    cluster_of = {fg.leaves[i]: find(i) for i in range(p)}
    numbering = {}
    for leaf in bf_leaf_order(fg):
        numbering.setdefault(cluster_of[leaf], len(numbering) + 1)
    return {leaf: numbering[cluster_of[leaf]] for leaf in fg.leaves}


# ---------------------------------------------------------------------------
# Exact hypergeometric tail by rational enumeration
# ---------------------------------------------------------------------------

def exact_hypergeom_upper_tail(N, K, n, k):
    total = Fraction(0)
    for i in range(k, min(n, K) + 1):
        if n - i > N - K:
            continue
        total += Fraction(comb(K, i) * comb(N - K, n - i), comb(N, n))
    return total


def hypergeom_pmf(N, K, n, i):
    """P(X = i) of the hypergeometric law by exact rational arithmetic (0 off the support)."""
    if i < max(0, n + K - N) or i > min(n, K):
        return 0.0
    return float(Fraction(comb(K, i) * comb(N - K, n - i), comb(N, n)))


# ---------------------------------------------------------------------------
# Views of package results that only the tests read
# ---------------------------------------------------------------------------

def fm_column(fm, name):
    """One named column of a FeatureMatrix."""
    return fm.data[:, fm.columns.index(name)]


def logistic_score_max_norm(fit, y, X):
    """Max-norm of the log-likelihood gradient at a LogisticFit's coefficients."""
    design = np.column_stack([np.ones(len(y)), X])
    mu = expit(design @ fit.coef)
    return float(np.abs(design.T @ (y - mu)).max())


def neg_log_p(ens):
    """-log of a BalancedEnsemble's replicate p-values, clipped away from 0."""
    return -np.log(np.clip(ens.p_values, 1e-300, None))


def band_halfwidth(fit):
    """Half-width of a FunctionalFit's pointwise 95% bands."""
    return 1.96 * fit.se
