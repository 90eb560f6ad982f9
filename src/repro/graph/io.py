"""Graph file readers/writers for the formats the paper's datasets ship in.

Supported formats:

* **SNAP edge list** (``# comment`` lines, one ``u v`` pair per line) —
  the Stanford Network Analysis Platform distribution format used for
  ``loc-gowalla`` and ``com-amazon``.
* **DIMACS-10 / METIS** adjacency format used by the 10th DIMACS
  Implementation Challenge graphs (``luxembourg.osm``, ``delaunay_n20``,
  ``kron_g500-logn20``, ...): a header ``n m`` line followed by one line
  per vertex listing its (1-indexed) neighbours.
* **Matrix Market** coordinate pattern format used by the University of
  Florida Sparse Matrix Collection (``af_shell9``).
* **NumPy ``.npz`` CSR payloads** (``indptr``/``adj`` arrays) — the
  repo's own binary interchange format for preprocessed graphs.

Every reader validates its input *at load time* — negative or
out-of-range vertex ids, non-monotone CSR offsets, malformed headers —
and raises :class:`~repro.errors.GraphFormatError` carrying the file
name and line number, instead of letting a poisoned graph fail deep
inside a traversal kernel.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import GraphFormatError, GraphStructureError
from .build import from_edges
from .csr import CSRGraph, _symmetric

__all__ = [
    "read_snap_edgelist",
    "write_snap_edgelist",
    "read_dimacs_metis",
    "write_dimacs_metis",
    "read_matrix_market",
    "write_matrix_market",
    "read_csr_npz",
    "write_csr_npz",
    "load_graph",
]


def _open(path_or_file, mode: str = "r"):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


def _label(path_or_file) -> str:
    """File label for error context: the path, or the stream's name."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return str(getattr(path_or_file, "name", "<stream>"))
    return str(path_or_file)


def read_snap_edgelist(path_or_file, undirected: bool = True, name: str = "") -> CSRGraph:
    """Read a SNAP-style edge list (``#`` comments, whitespace pairs)."""
    fh, close = _open(path_or_file)
    where = _label(path_or_file)
    try:
        pairs = []
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{where}: line {lineno}: expected 'u v', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{where}: line {lineno}: non-integer endpoint in {line!r}"
                ) from exc
            if u < 0 or v < 0:
                raise GraphFormatError(
                    f"{where}: line {lineno}: negative vertex id in {line!r}"
                )
            pairs.append((u, v))
    finally:
        if close:
            fh.close()
    edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return from_edges(edges, undirected=undirected, name=name)


def write_snap_edgelist(g: CSRGraph, path_or_file) -> None:
    """Write one direction of each edge in SNAP edge-list format."""
    fh, close = _open(path_or_file, "w")
    try:
        fh.write(f"# repro graph {g.name}\n# n={g.num_vertices} m={g.num_edges}\n")
        src = g.edge_sources()
        if g.undirected:
            mask = src <= g.adj
            src, dst = src[mask], g.adj[mask]
        else:
            dst = g.adj
        for u, v in zip(src.tolist(), dst.tolist()):
            fh.write(f"{u}\t{v}\n")
    finally:
        if close:
            fh.close()


def read_dimacs_metis(path_or_file, name: str = "") -> CSRGraph:
    """Read a DIMACS-10/METIS adjacency file (1-indexed, undirected)."""
    fh, close = _open(path_or_file)
    where = _label(path_or_file)
    try:
        header = None
        rows: list[tuple[int, list[int]]] = []
        for lineno, line in enumerate(fh, 1):
            stripped = line.strip()
            if stripped.startswith("%"):
                continue
            if header is None:
                if not stripped:
                    continue  # leading blank lines before the header
                parts = stripped.split()
                if len(parts) < 2:
                    raise GraphFormatError(
                        f"{where}: line {lineno}: bad METIS header {line!r}"
                    )
                try:
                    header = (int(parts[0]), int(parts[1]))
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{where}: line {lineno}: non-integer METIS header "
                        f"{line!r}"
                    ) from exc
                if header[0] < 0 or header[1] < 0:
                    raise GraphFormatError(
                        f"{where}: line {lineno}: negative count in METIS "
                        f"header {line!r}"
                    )
                continue
            # After the header every non-comment line is one vertex's
            # adjacency row; a blank line is an isolated vertex.
            try:
                rows.append((lineno, [int(x) for x in stripped.split()]))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{where}: line {lineno}: non-integer neighbour"
                ) from exc
        if header is None:
            raise GraphFormatError(f"{where}: missing METIS header line")
        n, m = header
        # Tolerate a missing trailing blank line for a final isolated vertex.
        while len(rows) < n:
            rows.append((-1, []))
        if len(rows) > n:
            raise GraphFormatError(
                f"{where}: expected {n} adjacency rows, found {len(rows)}"
            )
        pairs = []
        for u, (lineno, nbrs) in enumerate(rows):
            for v1 in nbrs:
                if not 1 <= v1 <= n:
                    raise GraphFormatError(
                        f"{where}: line {lineno}: vertex id {v1} out of "
                        f"1..{n}"
                    )
                pairs.append((u, v1 - 1))
        edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        g = from_edges(edges, num_vertices=n, undirected=True, name=name,
                       already_symmetric=True)
        if g.num_edges != m:
            # METIS headers count undirected edges; tolerate mismatches that
            # arise from duplicate rows but surface gross corruption.
            if abs(g.num_edges - m) > m:
                raise GraphFormatError(
                    f"{where}: header claims {m} edges, file contains "
                    f"{g.num_edges}"
                )
        return g
    finally:
        if close:
            fh.close()


def write_dimacs_metis(g: CSRGraph, path_or_file) -> None:
    """Write an undirected graph in METIS adjacency format."""
    if not g.undirected:
        raise GraphFormatError("METIS format stores undirected graphs")
    fh, close = _open(path_or_file, "w")
    try:
        fh.write(f"{g.num_vertices} {g.num_edges}\n")
        for v in range(g.num_vertices):
            fh.write(" ".join(str(int(w) + 1) for w in g.neighbors(v)) + "\n")
    finally:
        if close:
            fh.close()


def read_matrix_market(path_or_file, name: str = "") -> CSRGraph:
    """Read a Matrix Market coordinate file as an undirected graph.

    Symmetric pattern/real matrices (the UFL collection convention) are
    supported; entry values are ignored, the sparsity pattern defines the
    edges, and diagonal entries (self loops) are dropped.
    """
    fh, close = _open(path_or_file)
    where = _label(path_or_file)
    try:
        first = fh.readline()
        if not first.startswith("%%MatrixMarket"):
            raise GraphFormatError(f"{where}: missing MatrixMarket banner")
        tokens = first.split()
        if len(tokens) < 5 or tokens[1] != "matrix" or tokens[2] != "coordinate":
            raise GraphFormatError(
                f"{where}: unsupported MatrixMarket header: {first!r}"
            )
        lineno = 1
        line = fh.readline()
        lineno += 1
        while line.startswith("%"):
            line = fh.readline()
            lineno += 1
        parts = line.split()
        if len(parts) != 3:
            raise GraphFormatError(
                f"{where}: line {lineno}: bad size line: {line!r}"
            )
        try:
            nrows, ncols, nnz = (int(x) for x in parts)
        except ValueError as exc:
            raise GraphFormatError(
                f"{where}: line {lineno}: non-integer size line: {line!r}"
            ) from exc
        if nrows < 0 or ncols < 0 or nnz < 0:
            raise GraphFormatError(
                f"{where}: line {lineno}: negative dimension in size line: "
                f"{line!r}"
            )
        n = max(nrows, ncols)
        pairs = []
        entries = 0
        for lineno, line in enumerate(fh, lineno + 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{where}: line {lineno}: expected 'row col', got "
                    f"{line!r}"
                )
            try:
                u1, v1 = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{where}: line {lineno}: non-integer coordinate in "
                    f"{line!r}"
                ) from exc
            if not (1 <= u1 <= nrows and 1 <= v1 <= ncols):
                raise GraphFormatError(
                    f"{where}: line {lineno}: entry ({u1}, {v1}) outside "
                    f"the declared {nrows} x {ncols} matrix"
                )
            entries += 1
            if u1 != v1:
                pairs.append((u1 - 1, v1 - 1))
        if entries != nnz:
            raise GraphFormatError(
                f"{where}: size line declares {nnz} entries, file contains "
                f"{entries}"
            )
        edges = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return from_edges(edges, num_vertices=n, undirected=True, name=name)
    finally:
        if close:
            fh.close()


def write_matrix_market(g: CSRGraph, path_or_file) -> None:
    """Write the lower triangle of an undirected graph as a symmetric
    pattern Matrix Market file."""
    fh, close = _open(path_or_file, "w")
    try:
        fh.write("%%MatrixMarket matrix coordinate pattern symmetric\n")
        src = g.edge_sources()
        mask = src >= g.adj if g.undirected else np.ones(src.size, bool)
        su, sv = src[mask], g.adj[mask]
        n = g.num_vertices
        fh.write(f"{n} {n} {su.size}\n")
        for u, v in zip(su.tolist(), sv.tolist()):
            fh.write(f"{u + 1} {v + 1}\n")
    finally:
        if close:
            fh.close()


def read_csr_npz(path, name: str = "") -> CSRGraph:
    """Read a CSR graph from a NumPy ``.npz`` payload.

    The payload must contain ``indptr`` and ``adj`` arrays (plus
    optional ``undirected``/``name`` scalars, as written by
    :func:`write_csr_npz`).  The CSR structure is validated before the
    graph is returned — non-monotone offsets, ``indptr``/``adj`` length
    mismatches, out-of-range adjacency targets and an ``undirected``
    payload whose adjacency is not symmetric all raise
    :class:`~repro.errors.GraphFormatError` with the file named, rather
    than surfacing later as an index error inside a traversal kernel.
    """
    where = str(path)
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise GraphFormatError(f"{where}: not a readable .npz file: {exc}") from exc
    with data:
        missing = {"indptr", "adj"} - set(data.files)
        if missing:
            raise GraphFormatError(
                f"{where}: missing CSR arrays {sorted(missing)}"
            )
        indptr = data["indptr"]
        adj = data["adj"]
        undirected = bool(data["undirected"]) if "undirected" in data.files else True
        stored_name = str(data["name"]) if "name" in data.files else ""
    if not np.issubdtype(indptr.dtype, np.integer) \
            or not np.issubdtype(adj.dtype, np.integer):
        raise GraphFormatError(
            f"{where}: indptr/adj must be integer arrays, got "
            f"{indptr.dtype}/{adj.dtype}"
        )
    try:
        g = CSRGraph(indptr, adj, undirected=undirected,
                     name=name or stored_name)
    except GraphStructureError as exc:
        raise GraphFormatError(f"{where}: invalid CSR payload: {exc}") from exc
    # canonical() caches the answer for the sweep; a payload that fails
    # it only for unsorted rows is still a valid undirected graph.
    if g.undirected and not g.canonical() and not _symmetric(g, rows_sorted=False):
        raise GraphFormatError(
            f"{where}: invalid CSR payload: undirected adjacency is not "
            f"symmetric")
    return g


def write_csr_npz(g: CSRGraph, path) -> None:
    """Write a graph as a NumPy ``.npz`` CSR payload (see
    :func:`read_csr_npz`)."""
    np.savez(path, indptr=g.indptr, adj=g.adj,
             undirected=np.bool_(g.undirected), name=np.str_(g.name))


_EXTENSIONS = {
    ".txt": read_snap_edgelist,
    ".edges": read_snap_edgelist,
    ".graph": read_dimacs_metis,
    ".metis": read_dimacs_metis,
    ".mtx": read_matrix_market,
    ".npz": read_csr_npz,
}


def load_graph(path: str, name: str = "") -> CSRGraph:
    """Load a graph file, dispatching on its extension."""
    ext = os.path.splitext(path)[1].lower()
    reader = _EXTENSIONS.get(ext)
    if reader is None:
        raise GraphFormatError(
            f"unknown graph extension {ext!r}; known: {sorted(_EXTENSIONS)}"
        )
    return reader(path, name=name or os.path.basename(path))
