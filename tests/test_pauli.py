import numpy as np
import pytest

from spinkick import PauliString, SiteAssignment, string_expectation

import oracles


class TestPauliString:
    def test_from_text_roundtrip(self):
        p = PauliString.from_text("ixYz")
        assert p.labels == ("I", "X", "Y", "Z")
        assert str(p) == "IXYZ"
        assert p.n_sites == 4

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            PauliString.from_text("IXQ")

    def test_rejects_single_site(self):
        with pytest.raises(ValueError):
            PauliString(("X",))


class TestSiteAssignment:
    def test_parse_aliases(self):
        a = SiteAssignment.parse("0,1,+,-")
        assert a.entries == [("Z", 1), ("Z", -1), ("X", 1), ("X", -1)]
        assert str(a) == "Z+,Z-,X+,X-"

    def test_parse_whitespace(self):
        a = SiteAssignment.parse("X+ Z+  y-")
        assert a.entries == [("X", 1), ("Z", 1), ("Y", -1)]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SiteAssignment.parse("X+,Q-")
        with pytest.raises(ValueError):
            SiteAssignment.parse("")

    def test_uniform(self):
        a = SiteAssignment.uniform(3, "Z", -1)
        assert a.n_sites == 3
        assert a.entries == [("Z", -1)] * 3

    def test_site_vectors(self):
        a = SiteAssignment.parse("Z+,Z-,X+,Y-")
        np.testing.assert_allclose(a.site_vector(1), [1, 0])
        np.testing.assert_allclose(a.site_vector(2), [0, 1])
        np.testing.assert_allclose(a.site_vector(3), np.array([1, 1]) / np.sqrt(2))
        np.testing.assert_allclose(a.site_vector(4), np.array([1, -1j]) / np.sqrt(2))

    def test_explicit_vector_normalized(self):
        a = SiteAssignment([("Z", 1), [3.0, 4.0j]])
        assert not a.is_eigenbasis()
        assert a.basis_at(2) is None
        np.testing.assert_allclose(np.linalg.norm(a.site_vector(2)), 1.0)

    def test_explicit_zero_rejected(self):
        with pytest.raises(ValueError):
            SiteAssignment([[0.0, 0.0]])

    def test_bad_eigen_entry(self):
        with pytest.raises(ValueError):
            SiteAssignment([("Q", 1)])
        with pytest.raises(ValueError):
            SiteAssignment([("X", 2)])


class TestStringExpectation:
    def test_matching_z_pair(self):
        p = PauliString.from_text("IZZ")
        assert string_expectation(p, SiteAssignment.uniform(3, "Z", 1)) == 1

    def test_single_flip(self):
        p = PauliString.from_text("IZI")
        a = SiteAssignment.parse("0,1,0")
        assert string_expectation(p, a) == -1

    def test_mismatch_is_zero(self):
        p = PauliString.from_text("IXI")
        assert string_expectation(p, SiteAssignment.uniform(3, "Z", 1)) == 0

    def test_mixed_product(self):
        p = PauliString.from_text("XZ")
        a = SiteAssignment([("X", 1), ("Z", -1)])
        assert string_expectation(p, a) == -1

    def test_rejects_explicit_entries(self):
        a = SiteAssignment([("Z", 1), [1.0, 1.0]])
        with pytest.raises(ValueError):
            string_expectation(PauliString.from_text("ZZ"), a)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError):
            string_expectation(PauliString.from_text("ZZ"), SiteAssignment.uniform(3))

    def test_against_dense(self):
        # product states of eigenvectors, expectation via explicit matrices
        rng = np.random.default_rng(11)
        bases = ["X", "Y", "Z"]
        for _ in range(100):
            n = int(rng.integers(2, 5))
            entries = [(bases[int(rng.integers(0, 3))], int(rng.choice([-1, 1])))
                       for _ in range(n)]
            a = SiteAssignment(entries)
            psi = np.eye(1, dtype=complex)[0]
            for s in range(1, n + 1):
                psi = np.kron(psi, a.site_vector(s))
            labels = tuple(rng.choice(list("IXYZ"), size=n))
            got = string_expectation(PauliString(labels), a)
            want = oracles.pauli_expectation(psi, labels)
            assert abs(got - want) < 1e-12
