"""Unit tests for graph statistics (Table II columns)."""

from repro.graph.stats import (
    connected_component_sizes,
    degree_histogram,
    estimate_diameter,
    exact_diameter,
    graph_stats,
)


class TestDegreeHistogram:
    def test_star(self, star):
        hist = degree_histogram(star)
        assert hist[1] == 6 and hist[6] == 1

    def test_sums_to_n(self, small_sw):
        assert int(degree_histogram(small_sw).sum()) == small_sw.num_vertices

    def test_empty(self):
        from repro.graph.build import from_edges

        assert degree_histogram(from_edges([])).tolist() == [0]


class TestComponents:
    def test_two_triangles(self, two_components):
        sizes = connected_component_sizes(two_components)
        assert sizes.tolist() == [3, 3, 1]

    def test_connected(self, fig1):
        assert connected_component_sizes(fig1).tolist() == [9]


class TestDiameter:
    def test_exact_path(self, path5):
        assert exact_diameter(path5) == 4

    def test_exact_cycle(self, cycle6):
        assert exact_diameter(cycle6) == 3

    def test_exact_figure1(self, fig1):
        import networkx as nx

        from repro.graph.build import to_networkx

        assert exact_diameter(fig1) == nx.diameter(to_networkx(fig1))

    def test_estimate_lower_bounds_exact(self, small_mesh, small_sw):
        for g in (small_mesh, small_sw):
            est = estimate_diameter(g, samples=6, seed=0)
            assert est <= exact_diameter(g)
            # Double sweep is near-exact on these families.
            assert est >= exact_diameter(g) - 2

    def test_estimate_deterministic(self, small_mesh):
        a = estimate_diameter(small_mesh, samples=3, seed=42)
        b = estimate_diameter(small_mesh, samples=3, seed=42)
        assert a == b

    def test_edgeless(self):
        from repro.graph.build import from_edges

        g = from_edges([], num_vertices=5)
        assert estimate_diameter(g) == 0
        assert exact_diameter(g) == 0


class TestGraphStats:
    def test_row_fields(self, fig1):
        st = graph_stats(fig1, description="example")
        assert st.num_vertices == 9
        assert st.num_edges == 11
        assert st.max_degree == 4
        assert st.diameter == 5
        assert st.diameter_exact
        assert st.num_components == 1
        assert st.largest_component == 9
        assert st.description == "example"

    def test_auto_estimate_for_big(self, small_sw):
        st = graph_stats(small_sw, exact=False)
        assert not st.diameter_exact
        assert st.diameter >= 1
