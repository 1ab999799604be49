"""Operator graph: commutator closure of the receiver operator X_N.

Closing {X_N} under commutation with the chain's XX / YY / Z terms yields at
most 2N strings, each of the form (X or Y at site k) followed by a Z tail.
Nodes are kept in a canonical order that puts the X-seeded family at indices
1..N and the Y-seeded family at N+1..2N, so the end-to-end transfer
coefficients always live at fixed indices N and 2N.  Edges carry the
commutator sign; the per-channel generator matrices are antisymmetric and the
coefficient dynamics are d(alpha)/dt = 2 K(t) alpha.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from .pauli import CHANNELS, HamiltonianTerm, PauliString, chain_terms, commute_with_term

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


def canonical_index(p: PauliString) -> int:
    """1-based canonical position of a closure string.

    Position within a family counts from the receiver end: the string with
    leading operator at site k sits at family position N+1-k.  The family is
    X-seeded (indices 1..N) when the leading operator matches the alternating
    X,Y,X,... pattern and Y-seeded (N+1..2N) otherwise.
    """
    n = p.n_sites
    lead = next(s for s in range(1, n + 1) if p.op_at(s) != "I")
    op = p.op_at(lead)
    if op not in ("X", "Y"):
        raise ValueError(f"{p} is not a closure string")
    if any(p.op_at(s) != "Z" for s in range(lead + 1, n + 1)):
        raise ValueError(f"{p} is not a closure string")
    pos = n + 1 - lead
    x_family_op = "X" if pos % 2 == 1 else "Y"
    return pos if op == x_family_op else n + pos


def _closure(seed: PauliString, terms: Sequence[HamiltonianTerm]):
    """Worklist closure; returns visited strings and raw directed edge records."""
    visited = {seed}
    work = [seed]
    raw: Dict[Tuple[PauliString, PauliString, str], int] = {}
    while work:
        p = work.pop()
        for term in terms:
            r = commute_with_term(p, term)
            if r is None:
                continue
            q, sign = r
            raw[(p, q, term.channel)] = sign
            if q not in visited:
                visited.add(q)
                work.append(q)
    return visited, raw


def build_graph(n_sites: int, channels: Sequence[str] = CHANNELS) -> OperatorGraph:
    """Commutator closure of X_N under the requested channels."""
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    bad = [c for c in channels if c not in CHANNELS]
    if bad or not channels:
        raise ValueError(f"invalid channel selection {tuple(channels)}")
    seed = PauliString.single(n_sites, n_sites, "X")
    visited, raw = _closure(seed, chain_terms(n_sites, channels))
    nodes = tuple(sorted(visited, key=canonical_index))
    index = {p: i for i, p in enumerate(nodes)}
    edges = {}
    for (p, q, channel), sign in raw.items():
        a, b = index[p], index[q]
        if a < b:
            edges[(a, b, channel)] = sign
        else:
            edges[(b, a, channel)] = -sign  # store once, low index first
    edge_list = tuple(
        GraphEdge(a, b, ch, edges[(a, b, ch)])
        for a, b, ch in sorted(edges, key=lambda k: (k[0], k[1], k[2]))
    )
    return OperatorGraph(n_sites=n_sites, nodes=nodes, edges=edge_list)


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


@functools.lru_cache(maxsize=32)
def chain(n_sites: int) -> GeneratorMatrix:
    """K_Jx, K_Jy, K_B of the N-site chain, built once per N and shared, so read-only.

    For an edge a -> b with sign s the coefficient flow is
    alpha_b' += -2*c*s*alpha_a and alpha_a' += +2*c*s*alpha_b, i.e.
    K[b,a] = -s and K[a,b] = +s on that channel.
    """
    g = build_graph(n_sites)
    dim = len(g.nodes)
    matchings, mats = [], []
    for ch in CHANNELS:
        rows = [(e.a, e.b, e.sign) for e in g.edges if e.channel == ch]
        m = Matching(*np.array(rows, dtype=int).reshape(-1, 3).T)
        mat = np.zeros((dim, dim))
        mat[m.a, m.b] = m.sign
        mat[m.b, m.a] = -m.sign
        matchings.append(m)
        mats.append(mat)
    for mat in (*mats, *(a for m in matchings for a in m)):
        mat.setflags(write=False)
    return GeneratorMatrix(n_sites, g.nodes, *mats, tuple(matchings))


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
