"""Product-state site assignments for the open XY chain, and its channel names.

Sites are numbered 1 (sender, leftmost) to N (receiver).  A site assignment
is a product of single-site pure states: X/Y/Z eigenstates or explicit
2-vectors.  Operator strings are plain text, e.g. "IIXZ" (``spinkick.graph``).
"""
from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

CHANNELS = ("Jx", "Jy", "B")

_EIGENVECTORS = {
    ("Z", +1): np.array([1.0, 0.0], dtype=complex),
    ("Z", -1): np.array([0.0, 1.0], dtype=complex),
    ("X", +1): np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    ("X", -1): np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    ("Y", +1): np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    ("Y", -1): np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


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

