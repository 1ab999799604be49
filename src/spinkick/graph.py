"""Operator graph: the ladder that closes X_N under commutation with the chain.

Commuting X_N with the chain's XX / YY bonds and Z field, and the results in
turn, closes on 2N strings: an X or Y at some site k followed by Z on every
later site.  In canonical order (0-based indices here) they form a ladder of
two paths with N nodes each.  Index i is family f = i // N (0: X-seeded,
1: Y-seeded) at position pos = i % N + 1; its leading operator sits at site
N + 1 - pos, and it is X when pos is odd in family 0 or even in family 1,
else Y.  So the end-to-end transfer coefficients always live at the
1-based indices N and 2N.

Edges carry the sign s of [term, node_a] = 2i*s*node_b, stored once with
a < b:

- field rungs (i, N + i), B, sign (-1)^i;
- family bonds (f*N + i, f*N + i + 1), Jy with sign -1 when i + f is even,
  Jx with sign +1 when it is odd.

The per-channel generator matrices are antisymmetric and the coefficient
dynamics are d(alpha)/dt = 2 K(t) alpha.  ``tests/test_graph.py`` and
acceptance criterion 3 check every node, edge and sign of this closed form
against dense commutators of the 2^N x 2^N chain Hamiltonian.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .pauli import CHANNELS, PauliString

_DOT_COLORS = {"B": "black", "Jx": "green", "Jy": "red"}


@dataclass(frozen=True)
class GraphEdge:
    """Edge a -> b with the commutator sign of [term, node_a] = 2i*sign*node_b.

    Indices are 0-based into the node list; the reverse direction carries the
    opposite sign and is materialized only in the generator matrices.
    """

    a: int
    b: int
    channel: str
    sign: int


@dataclass(frozen=True)
class OperatorGraph:
    n_sites: int
    nodes: Tuple[PauliString, ...]
    edges: Tuple[GraphEdge, ...]


class Matching(NamedTuple):
    """Edges of one channel as index arrays: K[a, b] = sign and K[b, a] = -sign.

    Within one channel no two edges share a node, so the channel's generator
    is a matching and its exponential is one plane rotation per edge.
    """

    a: np.ndarray
    b: np.ndarray
    sign: np.ndarray


@dataclass(frozen=True)
class GeneratorMatrix:
    """Per-channel antisymmetric generators on the canonical node basis."""

    n_sites: int
    nodes: Tuple[PauliString, ...]
    k_jx: np.ndarray
    k_jy: np.ndarray
    k_b: np.ndarray
    matchings: Tuple[Matching, ...]  # edge arrays of (Jx, Jy, B), the generators' source

    @property
    def dim(self) -> int:
        return len(self.nodes)

    def combined(self, jx: float, jy: float, b: float) -> np.ndarray:
        return jx * self.k_jx + jy * self.k_jy + b * self.k_b


def _nodes(n_sites: int) -> Tuple[PauliString, ...]:
    """The 2N ladder strings in canonical order."""
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    nodes = []
    for i in range(2 * n_sites):
        family, p = divmod(i, n_sites)  # p = pos - 1, the number of Z's after the lead
        lead = "XY"[(family + p) % 2]
        nodes.append(PauliString(("I",) * (n_sites - 1 - p) + (lead,) + ("Z",) * p))
    return tuple(nodes)


def _matchings(n_sites: int) -> Tuple[Matching, ...]:
    """(Jx, Jy, B) edges of the ladder, each channel's edges in ascending a."""
    i = np.arange(n_sites - 1)
    a = np.concatenate([i, n_sites + i])
    jx = np.concatenate([i % 2, (i + 1) % 2]) == 1  # bond i of family f is Jx when i + f is odd
    rung = np.arange(n_sites)
    return (Matching(a[jx], a[jx] + 1, np.ones(jx.sum(), dtype=int)),
            Matching(a[~jx], a[~jx] + 1, -np.ones((~jx).sum(), dtype=int)),
            Matching(rung, rung + n_sites, 1 - 2 * (rung % 2)))


@functools.lru_cache(maxsize=32)
def chain(n_sites: int) -> GeneratorMatrix:
    """K_Jx, K_Jy, K_B of the N-site chain, built once per N and shared, so read-only.

    For an edge a -> b with sign s the coefficient flow is
    alpha_b' += -2*c*s*alpha_a and alpha_a' += +2*c*s*alpha_b, i.e.
    K[b,a] = -s and K[a,b] = +s on that channel.
    """
    nodes = _nodes(n_sites)
    matchings = _matchings(n_sites)
    mats = []
    for m in matchings:
        mat = np.zeros((2 * n_sites, 2 * n_sites))
        mat[m.a, m.b] = m.sign
        mat[m.b, m.a] = -m.sign
        mats.append(mat)
    for mat in (*mats, *(a for m in matchings for a in m)):
        mat.setflags(write=False)
    return GeneratorMatrix(n_sites, nodes, *mats, matchings)


def build_graph(n_sites: int, channels: Sequence[str] = CHANNELS) -> OperatorGraph:
    """The part of the ladder that the requested channels connect to X_N, renumbered.

    Kept nodes stay in canonical order and edges are sorted by (a, b, channel).
    """
    nodes = _nodes(n_sites)
    bad = [c for c in channels if c not in CHANNELS]
    if bad or not channels:
        raise ValueError(f"invalid channel selection {tuple(channels)}")
    edges = [(a, b, ch, s) for ch, m in zip(CHANNELS, _matchings(n_sites)) if ch in channels
             for a, b, s in zip(m.a.tolist(), m.b.tolist(), m.sign.tolist())]
    neighbours: Dict[int, List[int]] = {}
    for a, b, _, _ in edges:
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    reached, work = {0}, [0]  # X_N is node 0
    while work:
        for q in neighbours.get(work.pop(), ()):
            if q not in reached:
                reached.add(q)
                work.append(q)
    keep = sorted(reached)
    index = {old: new for new, old in enumerate(keep)}
    edge_list = tuple(GraphEdge(index[a], index[b], ch, s)
                      for a, b, ch, s in sorted(edges) if a in reached)
    return OperatorGraph(n_sites, tuple(nodes[i] for i in keep), edge_list)


def export_dot(g: OperatorGraph) -> str:
    """DOT digraph with channel-colored edges and sign labels."""
    lines = ["digraph operator_graph {", "  rankdir=LR;"]
    for i, p in enumerate(g.nodes):
        lines.append(f'  n{i + 1} [label="{p}"];')
    for e in g.edges:
        color = _DOT_COLORS[e.channel]
        lines.append(
            f'  n{e.a + 1} -> n{e.b + 1} [color={color}, label="{e.sign:+d}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_json(g: OperatorGraph) -> dict:
    """JSON-ready dump: per-node outgoing edges with commutator signs."""
    adjacency: Dict[int, List[dict]] = {i: [] for i in range(len(g.nodes))}
    for e in g.edges:
        adjacency[e.a].append({"to": e.b + 1, "channel": e.channel, "sign": e.sign})
        adjacency[e.b].append({"to": e.a + 1, "channel": e.channel, "sign": -e.sign})
    for entries in adjacency.values():
        entries.sort(key=lambda d: (d["to"], d["channel"]))
    return {
        "n_sites": g.n_sites,
        "nodes": [
            {"index": i + 1, "string": str(p), "edges": adjacency[i]}
            for i, p in enumerate(g.nodes)
        ],
    }
