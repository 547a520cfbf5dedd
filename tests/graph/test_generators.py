"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph import (degree_gini, flat_graph, power_law_graph,
                         power_law_weights)
from repro.graph.generators import (assign_communities,
                                    community_configuration_graph)


class TestPowerLawGraph:
    def test_reaches_target_density(self):
        g, _ = power_law_graph(1000, 20, np.random.default_rng(0))
        avg = g.num_edges / g.num_vertices
        assert 15 <= avg <= 25

    def test_is_symmetric(self):
        g, _ = power_law_graph(300, 10, np.random.default_rng(1))
        src, dst = g.edges()
        reverse = set(zip(dst.tolist(), src.tolist()))
        assert set(zip(src.tolist(), dst.tolist())) == reverse

    def test_skewed_degrees(self):
        g, _ = power_law_graph(1500, 30, np.random.default_rng(2),
                               exponent=2.05)
        assert degree_gini(g) > 0.3

    def test_more_skew_with_lower_exponent(self):
        g_low, _ = power_law_graph(1500, 20, np.random.default_rng(3),
                                   exponent=1.9)
        g_high, _ = power_law_graph(1500, 20, np.random.default_rng(3),
                                    exponent=3.0)
        assert degree_gini(g_low) > degree_gini(g_high)

    def test_bad_exponent(self):
        with pytest.raises(GraphError):
            power_law_weights(10, 1.0, np.random.default_rng(0))

    def test_community_labels_match(self):
        g, comm = power_law_graph(500, 10, np.random.default_rng(4),
                                  num_communities=5)
        assert len(comm) == g.num_vertices
        assert set(np.unique(comm)) == set(range(5))


class TestFlatGraph:
    def test_flat_degrees(self):
        g, _ = flat_graph(1500, 20, np.random.default_rng(5))
        assert degree_gini(g) < 0.2


class TestCommunityStructure:
    def test_mixing_controls_intra_fraction(self):
        rng = np.random.default_rng(7)
        g, comm = flat_graph(1200, 20, rng, num_communities=8, mixing=0.05)
        src, dst = g.edges()
        intra = (comm[src] == comm[dst]).mean()
        assert intra > 0.8

        rng = np.random.default_rng(7)
        g2, comm2 = flat_graph(1200, 20, rng, num_communities=8,
                               mixing=0.9)
        src2, dst2 = g2.edges()
        intra2 = (comm2[src2] == comm2[dst2]).mean()
        assert intra2 < 0.4

    def test_invalid_mixing(self):
        with pytest.raises(GraphError):
            flat_graph(100, 5, np.random.default_rng(0), mixing=1.5)

    def test_contiguous_assignment_blocks(self):
        comm = assign_communities(100, 4, np.random.default_rng(0))
        assert list(np.unique(comm)) == [0, 1, 2, 3]
        assert np.all(np.diff(comm) >= 0)  # blocks are contiguous

    def test_random_assignment(self):
        comm = assign_communities(1000, 4, np.random.default_rng(0),
                                  contiguous=False)
        counts = np.bincount(comm, minlength=4)
        assert counts.min() > 150  # roughly balanced

    def test_zero_communities_raises(self):
        with pytest.raises(GraphError):
            assign_communities(10, 0, np.random.default_rng(0))


class TestNonFiniteInputs:
    """Each used to surface as numpy's ``ValueError`` (``Probabilities
    contain NaN``) or as ``ValueError`` / ``OverflowError`` from
    ``int()``, or — a nan exponent — not at all.  (A negative weight
    was, and is, a ``GraphError`` of its own.)"""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_weights(self, bad):
        weights = np.ones(50)
        weights[7] = bad
        with pytest.raises(GraphError, match="finite"):
            community_configuration_graph(50, 100, np.zeros(50), weights,
                                          0.2, np.random.default_rng(0))

    def test_exponent(self):
        with pytest.raises(GraphError, match="exponent"):
            power_law_weights(10, np.nan, np.random.default_rng(0))

    @pytest.mark.parametrize("make", [power_law_graph, flat_graph],
                             ids=["power-law", "flat"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "-inf"])
    def test_avg_degree(self, make, bad):
        with pytest.raises(GraphError, match="avg_degree"):
            make(100, bad, np.random.default_rng(0))


class TestDeterminism:
    def test_same_seed_same_graph(self):
        g1, _ = power_law_graph(400, 10, np.random.default_rng(42))
        g2, _ = power_law_graph(400, 10, np.random.default_rng(42))
        assert g1 == g2

    def test_different_seed_different_graph(self):
        g1, _ = power_law_graph(400, 10, np.random.default_rng(1))
        g2, _ = power_law_graph(400, 10, np.random.default_rng(2))
        assert g1 != g2


class TestSanitizedConstruction:
    """Every generator family builds through ``from_edges``, whose
    sanitized CSR validation is armed suite-wide; assert it both ran
    and holds for each family's output."""

    @pytest.mark.parametrize("make", [
        lambda rng: power_law_graph(600, 12, rng)[0],
        lambda rng: flat_graph(600, 12, rng)[0],
        lambda rng: flat_graph(600, 12, rng, mixing=1.0,
                               weight_jitter=0.0)[0],
        lambda rng: flat_graph(600, 12, rng, num_communities=4,
                               mixing=0.1)[0],
    ])
    def test_generated_csr_well_formed(self, make):
        from repro.perf.sanitize import check_csr
        from repro.perf import PERF

        before = PERF.counters.get("sanitize_csr_checks", 0)
        g = make(np.random.default_rng(9))
        after = PERF.counters.get("sanitize_csr_checks", 0)
        assert after > before  # from_edges ran its armed check
        # Re-validate the finished graph explicitly, including both
        # adjacency directions.
        check_csr(g.indptr, g.indices, g.num_vertices,
                  name="generator output", sorted_rows=True)
        in_indptr, in_indices = g.in_csr()
        check_csr(in_indptr, in_indices, g.num_vertices,
                  name="generator in-CSR")
