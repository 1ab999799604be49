"""Pauli strings and product-state site assignments for the open XY chain.

Strings are labelled site 1 (sender, leftmost) to site N (receiver) and
carry labels only, no phase.  No commutators are computed here: the operator
graph is written down in closed form (``spinkick.graph``), with every sign
on its edges.  A site assignment is a product of single-site pure states,
and ``string_expectation`` reads a string's expectation in one built from
X/Y/Z eigenstates.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

PAULI_LABELS = ("I", "X", "Y", "Z")
CHANNELS = ("Jx", "Jy", "B")

_EIGENVECTORS = {
    ("Z", +1): np.array([1.0, 0.0], dtype=complex),
    ("Z", -1): np.array([0.0, 1.0], dtype=complex),
    ("X", +1): np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    ("X", -1): np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    ("Y", +1): np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    ("Y", -1): np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-site Pauli/identity operators, by label only."""

    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError("Pauli strings need at least 2 sites")
        bad = [c for c in self.labels if c not in PAULI_LABELS]
        if bad:
            raise ValueError(f"invalid Pauli labels: {bad}")

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        return cls(tuple(text.upper()))

    @property
    def n_sites(self) -> int:
        return len(self.labels)

    def op_at(self, site: int) -> str:
        """Operator label at a 1-based site."""
        return self.labels[site - 1]

    def __str__(self) -> str:
        return "".join(self.labels)


class SiteAssignment:
    """Per-site pure states: X/Y/Z eigenstate specs or explicit 2-vectors.

    Eigenstate entries are (basis, sign) pairs like ('Z', +1).  Explicit
    entries are complex length-2 arrays, normalized on input.
    """

    def __init__(self, entries: Sequence[Union[Tuple[str, int], np.ndarray, Sequence[complex]]]):
        parsed = []
        for e in entries:
            if isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], str):
                basis, sign = e[0].upper(), int(e[1])
                if basis not in ("X", "Y", "Z") or sign not in (-1, 1):
                    raise ValueError(f"bad eigenstate entry {e!r}")
                parsed.append((basis, sign))
            else:
                vec = np.asarray(e, dtype=complex).reshape(2)
                norm = np.linalg.norm(vec)
                if abs(norm - 1.0) > 1e-12:
                    if norm == 0:
                        raise ValueError("explicit site state has zero norm")
                    vec = vec / norm
                parsed.append(vec)
        self.entries = parsed

    @classmethod
    def parse(cls, text: str) -> "SiteAssignment":
        """Parse comma/whitespace separated tokens like 'X+,Z+,Z-,X-'.

        Aliases: 0 -> Z+, 1 -> Z-, + -> X+, - -> X-.
        """
        alias = {"0": ("Z", 1), "1": ("Z", -1), "+": ("X", 1), "-": ("X", -1)}
        entries = []
        for tok in text.replace(",", " ").split():
            t = tok.strip().upper()
            if t in alias:
                entries.append(alias[t])
            elif len(t) == 2 and t[0] in "XYZ" and t[1] in "+-":
                entries.append((t[0], 1 if t[1] == "+" else -1))
            else:
                raise ValueError(f"cannot parse site token {tok!r}")
        if not entries:
            raise ValueError("empty site assignment")
        return cls(entries)

    @classmethod
    def uniform(cls, n_sites: int, basis: str = "Z", sign: int = 1) -> "SiteAssignment":
        return cls([(basis, sign)] * n_sites)

    @property
    def n_sites(self) -> int:
        return len(self.entries)

    def is_eigenbasis(self) -> bool:
        return all(isinstance(e, tuple) for e in self.entries)

    def site_vector(self, site: int) -> np.ndarray:
        """Single-site state vector at a 1-based site."""
        e = self.entries[site - 1]
        if isinstance(e, tuple):
            return _EIGENVECTORS[e]
        return e

    def basis_at(self, site: int) -> Optional[str]:
        e = self.entries[site - 1]
        return e[0] if isinstance(e, tuple) else None

    def __str__(self) -> str:
        out = []
        for e in self.entries:
            if isinstance(e, tuple):
                out.append(f"{e[0]}{'+' if e[1] > 0 else '-'}")
            else:
                out.append("(explicit)")
        return ",".join(out)


def string_expectation(p: PauliString, assignment: SiteAssignment) -> int:
    """Expectation of a Pauli string in a product of X/Y/Z eigenstates.

    Product over sites of the single-site expectations: +-1 when the string's
    operator matches the assigned eigenbasis, 0 on any non-identity mismatch.
    """
    if assignment.n_sites != p.n_sites:
        raise ValueError(f"assignment has {assignment.n_sites} sites, string has {p.n_sites}")
    if not assignment.is_eigenbasis():
        raise ValueError("string_expectation needs eigenstate entries, not explicit vectors")
    value = 1
    for site in range(1, p.n_sites + 1):
        op = p.op_at(site)
        if op == "I":
            continue
        basis, sign = assignment.entries[site - 1]
        if op != basis:
            return 0
        value *= sign
    return value
