import numpy as np
import pytest

from spinkick import SiteAssignment


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

