"""Seeded inputs and independent answer oracles.

Inputs are generated here with numpy alone, so a change to the
generators inside ``repro`` cannot change what the benchmark measures:
the program under test receives only the arrays and request lines
made here.  The oracles compute each expected answer with scipy
from the same arrays, not with the code under test.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

#: the load harness's read-mostly mix (``repro.bench.load.DEFAULT_MIX``)
MIXED_OPS = {
    "s_degree": 0.55,
    "s_neighbors": 0.25,
    "s_connected_components": 0.08,
    "s_distance": 0.07,
    "update": 0.05,
}
#: hyperedges each update burst adds, and how many bursts later it
#: removes them again
MIXED_ADDS = 2
MIXED_LAG = 16
ZIPF_THETA = 1.1


# -- hypergraphs --------------------------------------------------------------

def uniform_hypergraph(num_edges, num_nodes, edge_size, rng):
    """Every hyperedge draws ``edge_size`` distinct nodes uniformly."""
    part0 = np.repeat(np.arange(num_edges, dtype=np.int64), edge_size)
    cols = rng.integers(0, num_nodes, size=(num_edges, edge_size))
    for i in range(num_edges):
        row = np.unique(cols[i])
        while row.size < edge_size:
            extra = rng.integers(0, num_nodes, size=edge_size - row.size)
            row = np.unique(np.concatenate([row, extra]))
        cols[i] = row
    return part0, cols.reshape(-1).astype(np.int64)


def skewed_hypergraph(num_hubs, hub_size, num_tail, num_nodes, rng):
    """Hub-and-tail incidence (Liu et al., arXiv 2010.11448).

    A core of hub hyperedges each covering most of a small node universe
    plus a long tail of 3-8 node hyperedges: the row-degree skew on which
    the s-line builder's degree-bucketed dispatcher has a real choice.
    """
    part0, part1 = [], []
    for e in range(num_hubs):
        members = rng.choice(num_nodes, size=hub_size, replace=False)
        part0.append(np.full(hub_size, e, dtype=np.int64))
        part1.append(np.sort(members).astype(np.int64))
    for i in range(num_tail):
        size = int(rng.integers(3, 9))
        members = rng.choice(num_nodes, size=size, replace=False)
        part0.append(np.full(size, num_hubs + i, dtype=np.int64))
        part1.append(np.sort(members).astype(np.int64))
    return np.concatenate(part0), np.concatenate(part1)


# -- request streams ----------------------------------------------------------

class Zipf:
    """Zipf(theta) ranks mapped onto a seeded permutation of ids."""

    def __init__(self, ids, theta, rng):
        self.ids = rng.permutation(np.asarray(ids, dtype=np.int64))
        w = np.arange(1, self.ids.size + 1, dtype=np.float64) ** -theta
        self.cdf = np.cumsum(w / w.sum())

    def draw(self, rng, n=None):
        u = rng.random() if n is None else rng.random(n)
        rank = np.minimum(
            np.searchsorted(self.cdf, u, side="right"), self.ids.size - 1
        )
        return self.ids[rank]


class LookupItems:
    """Zipf-keyed point reads: 70% ``s_degree``, 30% ``s_neighbors``.

    Payloads are built on access from two arrays, so a long sequence
    costs the benchmark process little memory.
    """

    def __init__(self, num_edges, count, rng, dataset):
        self.keys = Zipf(np.arange(num_edges), ZIPF_THETA, rng).draw(
            rng, count)
        self.degree = rng.random(count) < 0.7
        self.dataset = dataset

    def __len__(self):
        return self.keys.size

    def __getitem__(self, i):
        return {
            "op": "s_degree" if self.degree[i] else "s_neighbors",
            "dataset": self.dataset,
            "s": 1,
            "v": int(self.keys[i]),
        }


def mixed_schedule(rate, seconds, rng, dataset, num_edges, num_nodes):
    """Poisson arrivals at ``rate`` over ``seconds``: ``[(t, payload)]``.

    Reads are Zipf-keyed over the original hyperedges.  Update burst
    ``j`` adds ``MIXED_ADDS`` hyperedges of 2-3 uniformly drawn nodes and
    removes the ones burst ``j - MIXED_LAG`` added (new hyperedges get
    consecutive ids), so after the first bursts the dataset keeps its
    size and degree distribution.  With add-only bursts every op's cost
    grows for as long as the run lasts, and no run length gives a steady
    figure.
    """
    kinds = sorted(MIXED_OPS)
    probs = np.array([MIXED_OPS[k] for k in kinds])
    probs /= probs.sum()
    keys = Zipf(np.arange(num_edges), ZIPF_THETA, rng)
    out = []
    t = 0.0
    bursts = 0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= seconds:
            return out
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        payload = {"op": kind, "dataset": dataset}
        if kind in ("s_degree", "s_neighbors"):
            payload.update(s=1, v=int(keys.draw(rng)))
        elif kind == "s_distance":
            src, dst = int(keys.draw(rng)), int(keys.draw(rng))
            if dst == src:
                dst = (dst + 1) % num_edges
            payload.update(s=1, src=src, dst=dst)
        elif kind == "s_connected_components":
            payload.update(s=1)
        else:
            records = [
                {"op": "add_edge",
                 "members": sorted(int(x) for x in rng.choice(
                     num_nodes, size=int(rng.integers(2, 4)),
                     replace=False))}
                for _ in range(MIXED_ADDS)
            ]
            if bursts >= MIXED_LAG:
                first = num_edges + MIXED_ADDS * (bursts - MIXED_LAG)
                records += [{"op": "remove_edge", "edge": first + i}
                            for i in range(MIXED_ADDS)]
            payload["ops"] = records
            bursts += 1
        out.append((t, payload))


# -- oracles ------------------------------------------------------------------

def incidence(part0, part1, num_edges, num_nodes):
    data = np.ones(part0.size, dtype=np.int64)
    b = sp.csr_matrix((data, (part0, part1)), shape=(num_edges, num_nodes))
    b.sum_duplicates()
    b.data[:] = 1
    return b


def line_graph(b, s):
    """Upper-triangle ``(src, dst, overlap)`` of the s-line graph (BBᵀ)."""
    ov = sp.triu(b @ b.T, k=1).tocoo()
    keep = ov.data >= s
    order = np.lexsort((ov.col[keep], ov.row[keep]))
    return (
        ov.row[keep][order].astype(np.int64),
        ov.col[keep][order].astype(np.int64),
        ov.data[keep][order].astype(np.int64),
    )


def adjacency(src, dst, n):
    a = sp.coo_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n)
    ).tocsr()
    return (a + a.T).tocsr()


def distances(adj, pairs):
    """Hop distances per ``(src, dst)``; -1 when unreachable."""
    srcs = sorted({s for s, _ in pairs})
    d = csgraph.shortest_path(adj, unweighted=True, indices=srcs)
    row = {s: i for i, s in enumerate(srcs)}
    out = []
    for s, t in pairs:
        v = d[row[s], t]
        out.append(-1 if np.isinf(v) else int(v))
    return out


def components(adj):
    """Connected components of size > 1, as a set of frozensets."""
    _, labels = csgraph.connected_components(adj, directed=False)
    groups: dict[int, list[int]] = {}
    for v, lab in enumerate(labels.tolist()):
        groups.setdefault(lab, []).append(v)
    return {frozenset(g) for g in groups.values() if len(g) > 1}


def bipartite(b):
    """Edges-then-nodes adjacency of the incidence graph."""
    ne, nv = b.shape
    return sp.bmat([[None, b], [b.T, None]], format="csr"), ne, nv
