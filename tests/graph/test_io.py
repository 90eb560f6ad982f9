"""Unit tests for graph file readers/writers."""

import io

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.io import (
    load_graph,
    read_csr_npz,
    read_dimacs_metis,
    read_matrix_market,
    read_snap_edgelist,
    write_csr_npz,
    write_dimacs_metis,
    write_matrix_market,
    write_snap_edgelist,
)


class TestSnap:
    def test_read_basic(self):
        text = "# comment\n0 1\n1\t2\n"
        g = read_snap_edgelist(io.StringIO(text))
        assert g.num_vertices == 3 and g.num_edges == 2

    def test_blank_lines_and_comments(self):
        g = read_snap_edgelist(io.StringIO("#a\n\n0 1\n\n# b\n2 0\n"))
        assert g.num_edges == 2

    def test_bad_line(self):
        with pytest.raises(GraphFormatError):
            read_snap_edgelist(io.StringIO("0\n"))

    def test_non_integer(self):
        with pytest.raises(GraphFormatError):
            read_snap_edgelist(io.StringIO("a b\n"))

    def test_roundtrip(self, fig1, tmp_path):
        path = tmp_path / "g.txt"
        write_snap_edgelist(fig1, str(path))
        g2 = read_snap_edgelist(str(path))
        assert np.array_equal(g2.adj, fig1.adj)

    def test_directed_read(self):
        g = read_snap_edgelist(io.StringIO("0 1\n"), undirected=False)
        assert g.degree(1) == 0

    def test_negative_id_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2 -3\n")
        with pytest.raises(GraphFormatError) as err:
            read_snap_edgelist(str(path))
        msg = str(err.value)
        assert "bad.txt" in msg and "line 2" in msg


class TestMetis:
    def test_read_basic(self):
        # 3 vertices, 2 edges: 1-2, 2-3 (1-indexed)
        text = "3 2\n2\n1 3\n2\n"
        g = read_dimacs_metis(io.StringIO(text))
        assert g.num_vertices == 3 and g.num_edges == 2

    def test_isolated_vertex_blank_line(self):
        text = "3 1\n2\n1\n\n"
        g = read_dimacs_metis(io.StringIO(text))
        assert g.isolated_vertices().tolist() == [2]

    def test_comment_lines(self):
        text = "% hello\n2 1\n2\n1\n"
        g = read_dimacs_metis(io.StringIO(text))
        assert g.num_edges == 1

    def test_missing_header(self):
        with pytest.raises(GraphFormatError):
            read_dimacs_metis(io.StringIO(""))

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphFormatError):
            read_dimacs_metis(io.StringIO("2 1\n3\n1\n"))

    def test_out_of_range_reports_line(self, tmp_path):
        path = tmp_path / "bad.graph"
        path.write_text("2 1\n2\n7\n")
        with pytest.raises(GraphFormatError) as err:
            read_dimacs_metis(str(path))
        msg = str(err.value)
        assert "bad.graph" in msg and "line 3" in msg

    def test_non_integer_header(self):
        with pytest.raises(GraphFormatError) as err:
            read_dimacs_metis(io.StringIO("two 1\n"))
        assert "line 1" in str(err.value)

    def test_negative_header_counts(self):
        with pytest.raises(GraphFormatError):
            read_dimacs_metis(io.StringIO("-2 1\n"))

    def test_too_many_rows(self):
        with pytest.raises(GraphFormatError):
            read_dimacs_metis(io.StringIO("1 0\n\n\n\n"))

    def test_roundtrip(self, fig1, tmp_path):
        path = tmp_path / "g.graph"
        write_dimacs_metis(fig1, str(path))
        g2 = read_dimacs_metis(str(path))
        assert np.array_equal(g2.adj, fig1.adj)

    def test_write_rejects_directed(self, tmp_path):
        from repro.graph.build import from_edges

        g = from_edges([(0, 1)], undirected=False)
        with pytest.raises(GraphFormatError):
            write_dimacs_metis(g, str(tmp_path / "d.graph"))


class TestMatrixMarket:
    def test_read_basic(self):
        text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
                "% comment\n3 3 2\n2 1\n3 2\n")
        g = read_matrix_market(io.StringIO(text))
        assert g.num_vertices == 3 and g.num_edges == 2

    def test_diagonal_dropped(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 5.0\n2 1 1.0\n"
        g = read_matrix_market(io.StringIO(text))
        assert g.num_edges == 1

    def test_missing_banner(self):
        with pytest.raises(GraphFormatError):
            read_matrix_market(io.StringIO("3 3 1\n2 1\n"))

    def test_unsupported_format(self):
        with pytest.raises(GraphFormatError):
            read_matrix_market(io.StringIO("%%MatrixMarket matrix array real\n"))

    def test_roundtrip(self, fig1, tmp_path):
        path = tmp_path / "g.mtx"
        write_matrix_market(fig1, str(path))
        g2 = read_matrix_market(str(path))
        assert np.array_equal(g2.adj, fig1.adj)

    def test_entry_out_of_declared_dims(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern symmetric\n"
                        "3 3 2\n2 1\n9 2\n")
        with pytest.raises(GraphFormatError) as err:
            read_matrix_market(str(path))
        msg = str(err.value)
        assert "bad.mtx" in msg and "line 4" in msg

    def test_entry_count_mismatch(self):
        text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
                "3 3 5\n2 1\n3 2\n")
        with pytest.raises(GraphFormatError) as err:
            read_matrix_market(io.StringIO(text))
        assert "5" in str(err.value)

    def test_non_integer_entry(self):
        text = ("%%MatrixMarket matrix coordinate pattern symmetric\n"
                "3 3 1\nx y\n")
        with pytest.raises(GraphFormatError) as err:
            read_matrix_market(io.StringIO(text))
        assert "line 3" in str(err.value)

    def test_negative_size_line(self):
        text = "%%MatrixMarket matrix coordinate pattern symmetric\n-3 3 1\n"
        with pytest.raises(GraphFormatError):
            read_matrix_market(io.StringIO(text))


class TestCsrNpz:
    def test_roundtrip_via_load_graph(self, fig1, tmp_path):
        path = tmp_path / "g.npz"
        write_csr_npz(fig1, str(path))
        g2 = load_graph(str(path))
        assert np.array_equal(g2.indptr, fig1.indptr)
        assert np.array_equal(g2.adj, fig1.adj)
        assert g2.undirected == fig1.undirected

    def test_missing_arrays(self, tmp_path):
        path = tmp_path / "empty.npz"
        np.savez(path, nothing=np.arange(3))
        with pytest.raises(GraphFormatError) as err:
            read_csr_npz(str(path))
        assert "empty.npz" in str(err.value)

    def test_non_monotone_indptr(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, indptr=np.array([0, 3, 1]), adj=np.array([1, 0, 0]))
        with pytest.raises(GraphFormatError) as err:
            read_csr_npz(str(path))
        assert "bad.npz" in str(err.value)

    def test_adj_out_of_range(self, tmp_path):
        path = tmp_path / "oob.npz"
        np.savez(path, indptr=np.array([0, 1, 2]), adj=np.array([1, 9]))
        with pytest.raises(GraphFormatError) as err:
            read_csr_npz(str(path))
        assert "oob.npz" in str(err.value)

    def test_asymmetric_undirected(self, tmp_path):
        # Two stored edges, 0 -> 1 and 0 -> 2, neither stored back.
        path = tmp_path / "asym.npz"
        np.savez(path, indptr=np.array([0, 2, 2, 2]), adj=np.array([1, 2]),
                 undirected=np.bool_(True))
        with pytest.raises(GraphFormatError, match="not symmetric") as err:
            read_csr_npz(str(path))
        assert "asym.npz" in str(err.value)

    def test_asymmetric_directed_and_unsorted_symmetric_load(self, tmp_path):
        path = tmp_path / "ok.npz"
        np.savez(path, indptr=np.array([0, 2, 2, 2]), adj=np.array([1, 2]),
                 undirected=np.bool_(False))
        assert read_csr_npz(str(path)).num_edges == 2
        # Undirected with the row 0 -> {2, 1} out of order: still valid.
        np.savez(path, indptr=np.array([0, 2, 3, 4]),
                 adj=np.array([2, 1, 0, 0]))
        g = read_csr_npz(str(path))
        assert g.num_edges == 2 and not g.canonical()

    def test_non_integer_dtype(self, tmp_path):
        path = tmp_path / "float.npz"
        np.savez(path, indptr=np.array([0.0, 1.0]), adj=np.array([0.5]))
        with pytest.raises(GraphFormatError):
            read_csr_npz(str(path))


class TestLoadGraph:
    def test_dispatch(self, fig1, tmp_path):
        p = tmp_path / "x.mtx"
        write_matrix_market(fig1, str(p))
        g = load_graph(str(p))
        assert g.num_edges == fig1.num_edges
        assert g.name == "x.mtx"

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(GraphFormatError):
            load_graph(str(tmp_path / "x.bin"))
