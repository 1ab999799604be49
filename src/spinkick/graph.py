"""Operator graph: the ladder that closes X_N under commutation with the chain.

Commuting X_N with the chain's XX / YY bonds and Z field, and the results in
turn, closes on 2N strings: an X or Y at some site k followed by Z on every
later site.  In canonical order (0-based indices here) they form a ladder of
two paths with N nodes each.  Index i is family f = i // N (0: X-seeded,
1: Y-seeded) at position pos = i % N + 1; its leading operator sits at site
N + 1 - pos, and it is X when pos is odd in family 0 or even in family 1,
else Y.  So the end-to-end transfer coefficients always live at the
1-based indices N and 2N.

Nodes are labelled by their strings, site 1 first, e.g. "IIXZ".

Edges carry the sign s of [term, node_a] = 2i*s*node_b, stored once with
a < b:

- field rungs (i, N + i), B, sign (-1)^i;
- family bonds (f*N + i, f*N + i + 1), Jy with sign -1 when i + f is even,
  Jx with sign +1 when it is odd.

Within one channel no two edges share a node, so each channel's generator K_c
(K[a, b] = s, K[b, a] = -s) is a matching and is kept as one; the coefficient
dynamics are d(alpha)/dt = 2 K(t) alpha.  ``tests/test_graph.py`` and
acceptance criterion 3 check every node, edge and sign of this closed form
against dense commutators of the 2^N x 2^N chain Hamiltonian.
"""
from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from . import pulses
from .pulses import CHANNELS, _check_sites

_DOT_COLORS = {"B": "black", "Jx": "green", "Jy": "red"}


@dataclass(frozen=True)
class GraphEdge:
    """Edge a -> b with the commutator sign of [term, node_a] = 2i*sign*node_b.

    Indices are 0-based into the node list; the reverse direction carries the
    opposite sign and is not stored.
    """

    a: int
    b: int
    channel: str
    sign: int


@dataclass(frozen=True)
class OperatorGraph:
    n_sites: int
    nodes: Tuple[str, ...]
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
    """The (Jx, Jy, B) generators of the chain as matchings on the canonical node basis."""

    n_sites: int
    nodes: Tuple[str, ...]
    matchings: Tuple[Matching, ...]  # edge arrays of (Jx, Jy, B)

    @property
    def dim(self) -> int:
        return len(self.nodes)

    def combined(self, jx, jy, b) -> np.ndarray:
        """The dense generator jx*K_Jx + jy*K_Jy + b*K_B in a fresh matrix.

        Amplitude arrays of one shape S give a fresh S + (dim, dim) stack,
        one generator per entry, scattered straight from the matchings.  A
        channel at amplitude 0 writes +0.0, so no entry is -0.0.
        """
        amps = np.array([jx, jy, b], dtype=float)
        out = np.zeros(amps.shape[1:] + (self.dim, self.dim))
        for amp, m in zip(amps[..., None], self.matchings):
            entry = amp * m.sign + 0.0  # -0.0 + 0.0 is +0.0, all else kept
            out[..., m.a, m.b] = entry
            out[..., m.b, m.a] = 0.0 - entry  # -entry, but +0.0 where entry is 0
        return out


def _label_cache(build):
    """Cache build(N) by N, dropping the least recently used chains while the labels of
    those cached (2N^2 bytes each) pass pulses.MAX_LABEL_BYTES; the newest always stays."""
    cache = OrderedDict()

    @functools.wraps(build)
    def cached(n_sites):
        if n_sites in cache:
            cache.move_to_end(n_sites)
            return cache[n_sites]
        k = cache[n_sites] = build(n_sites)
        while sum(2 * c.n_sites ** 2 for c in cache.values()) > pulses.MAX_LABEL_BYTES:
            cache.popitem(last=False)
        return k
    return cached


@_label_cache
def chain(n_sites: int) -> GeneratorMatrix:
    """The generators of the N-site chain, built once per N and shared, so read-only.

    The 2N ladder strings come in canonical order, and each channel's edges
    in ascending a.  For an edge a -> b with sign s the coefficient flow is
    alpha_b' += -2*c*s*alpha_a and alpha_a' += +2*c*s*alpha_b, i.e.
    K[b,a] = -s and K[a,b] = +s on that channel.  A chain whose labels would
    pass pulses.MAX_LABEL_BYTES raises ResourceCapError before any is built.
    """
    _check_sites(n_sites)
    nodes = tuple("I" * (n_sites - 1 - p) + "XY"[(family + p) % 2] + "Z" * p  # p Z's after the lead
                  for family in range(2) for p in range(n_sites))
    i = np.arange(n_sites - 1)
    a = np.concatenate([i, n_sites + i])
    jx = np.concatenate([i % 2, (i + 1) % 2]) == 1  # bond i of family f is Jx when i + f is odd
    rung = np.arange(n_sites)
    matchings = (Matching(a[jx], a[jx] + 1, np.ones(jx.sum(), dtype=int)),
                 Matching(a[~jx], a[~jx] + 1, -np.ones((~jx).sum(), dtype=int)),
                 Matching(rung, rung + n_sites, 1 - 2 * (rung % 2)))
    for array in (x for m in matchings for x in m):
        array.setflags(write=False)
    return GeneratorMatrix(n_sites, nodes, matchings)


def build_graph(n_sites: int, channels: Sequence[str] = CHANNELS) -> OperatorGraph:
    """The part of the ladder that the requested channels connect to X_N, renumbered.

    Kept nodes stay in canonical order and edges are sorted by (a, b, channel).
    """
    k = chain(n_sites)
    bad = [c for c in channels if c not in CHANNELS]
    if bad or not channels:
        raise ValueError(f"invalid channel selection {tuple(channels)}")
    edges = [(a, b, ch, s) for ch, m in zip(CHANNELS, k.matchings) if ch in channels
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
    return OperatorGraph(n_sites, tuple(k.nodes[i] for i in keep), edge_list)


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
            {"index": i + 1, "string": p, "edges": adjacency[i]}
            for i, p in enumerate(g.nodes)
        ],
    }
