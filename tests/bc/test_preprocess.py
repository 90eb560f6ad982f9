"""Unit tests for degree-1 folding: peel mechanics, credits, mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc.accumulation import dependency_accumulation
from repro.bc.brandes import brandes_reference
from repro.bc.frontier import forward_sweep
from repro.bc.preprocess import (
    fold_degree_one,
    folded_betweenness_centrality,
    per_root_correction,
    root_plan,
)
from repro.graph.build import from_edges

pytestmark = pytest.mark.fold


def path(n):
    return from_edges([(i, i + 1) for i in range(n - 1)])


class TestPeel:
    def test_no_pendants_is_identity(self):
        g = from_edges([(i, (i + 1) % 5) for i in range(5)])  # C5
        fold = fold_degree_one(g)
        assert fold.is_identity
        assert fold.core is g
        assert fold.rounds == 0
        assert np.all(fold.credit == 0)

    def test_directed_is_identity(self):
        g = from_edges([(0, 1), (1, 2)], undirected=False)
        assert fold_degree_one(g).is_identity

    def test_empty_and_single_vertex(self):
        assert fold_degree_one(from_edges([], num_vertices=0)).is_identity
        assert fold_degree_one(from_edges([], num_vertices=1)).is_identity

    def test_path_peels_from_both_ends(self):
        fold = fold_degree_one(path(7))
        assert fold.core.num_vertices == 1
        # 7-path: ends peel inward, 3 rounds to the middle.
        assert fold.rounds == 3
        assert fold.weights[fold.core_vertices[0]] == 7.0

    def test_k2_resolves_higher_into_lower(self):
        fold = fold_degree_one(from_edges([(0, 1)]))
        assert fold.core_vertices.tolist() == [0]
        assert fold.parent[1] == 0
        assert fold.weights[0] == 2.0

    def test_star_folds_to_hub(self):
        fold = fold_degree_one(from_edges([(0, i) for i in range(1, 6)]))
        assert fold.core_vertices.tolist() == [0]
        assert np.all(fold.parent[1:] == 0)
        assert np.all(fold.host == 0)

    def test_self_loop_does_not_block_peel(self):
        # Vertex 1 has a self-loop plus one real edge: still pendant.
        g = from_edges([(0, 1), (1, 1), (0, 2), (2, 3), (3, 0)])
        fold = fold_degree_one(g)
        assert 1 not in fold.core_vertices.tolist()

    def test_isolated_vertices_stay_residual(self):
        g = from_edges([(0, 1), (1, 2)], num_vertices=5)
        fold = fold_degree_one(g)
        assert {3, 4} <= set(fold.core_vertices.tolist())

    def test_pendant_chain_off_cycle(self):
        # C4 with a 3-chain hanging off vertex 0: chain folds, cycle stays.
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0),
                        (0, 4), (4, 5), (5, 6)])
        fold = fold_degree_one(g)
        assert sorted(fold.core_vertices.tolist()) == [0, 1, 2, 3]
        assert fold.weights[0] == 4.0  # absorbed the 3-chain
        assert np.all(fold.host[[4, 5, 6]] == 0)


class TestCredits:
    def test_path_credit_closed_form(self):
        """On an n-path every vertex's full BC is closed-form; a path
        folds to one residual vertex so credit alone must carry all
        interior pairs (ordered units; Brandes halves for undirected)."""
        n = 9
        g = path(n)
        fold = fold_degree_one(g)
        expect = brandes_reference(g)
        # Residual traversal contributes nothing (single-vertex core).
        got = fold.credit / 2.0
        assert np.allclose(got, expect)

    def test_star_credit(self):
        g = from_edges([(0, i) for i in range(1, 6)])
        fold = fold_degree_one(g)
        assert np.allclose(fold.credit / 2.0, brandes_reference(g))

    def test_two_components_credit_uses_local_sizes(self):
        """Component size N in the credit formula is per-component, not
        global — a disconnected pair of paths must stay exact."""
        g = from_edges([(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)])
        fold = fold_degree_one(g)
        assert np.allclose(fold.credit / 2.0, brandes_reference(g))


class TestAssembly:
    def _weighted_delta(self, core, cs, tw):
        return dependency_accumulation(core, forward_sweep(core, cs),
                                       target_weights=tw)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 3), (3, 1), (0, 4), (4, 5)],
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (0, 6)],
    ])
    def test_folded_assembly_matches_brandes(self, edges):
        g = from_edges(edges)
        got = folded_betweenness_centrality(
            fold_degree_one(g), self._weighted_delta) / 2.0
        assert np.allclose(got, brandes_reference(g))

    def test_expand_scatters_and_zeroes(self):
        fold = fold_degree_one(from_edges([(0, 1), (1, 2), (2, 0), (0, 3)]))
        out = fold.expand(np.array([1.0, 2.0, 3.0]))
        assert out.shape == (4,)
        assert out[3] == 0.0
        assert sorted(out[:3].tolist()) == [1.0, 2.0, 3.0]

    def test_per_root_correction_each_root(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5),
                        (5, 6), (2, 7)])
        fold = fold_degree_one(g)
        tw = fold.core_weights
        for root in range(g.num_vertices):
            core_root, corr = per_root_correction(fold, root)
            delta = self._weighted_delta(fold.core, core_root, tw)
            got = fold.expand(delta) + corr
            expect = dependency_accumulation(g, forward_sweep(g, root))
            assert np.allclose(got, expect), f"root {root}"

    def test_per_root_correction_rejects_bad_root(self):
        fold = fold_degree_one(path(4))
        with pytest.raises(IndexError):
            per_root_correction(fold, 99)


def loop_corrections(fold, roots):
    """The per-root loop ``root_plan`` used to build an explicit root
    set's ``run_roots`` and ``extra`` with, copied as the reference."""
    sub, parent, comp = fold.weights, fold.parent, fold.comp_size
    n = fold.original.num_vertices
    run_roots = np.empty(len(roots), dtype=np.int64)
    extra = np.zeros(n, dtype=np.float64)
    for i, root in enumerate(roots):
        corr = np.zeros(n, dtype=np.float64)
        in_comp = fold.comp_label == fold.comp_label[root]
        corr[in_comp] = sub[in_comp] - 1.0
        corr[root] = 0.0
        N = comp[root]
        p = root
        while parent[p] != -1:
            q = int(parent[p])
            corr[q] = N - sub[p] - 1.0
            p = q
        run_roots[i] = int(fold.core_index[fold.host[root]])
        extra += corr
    return run_roots, extra


def assert_plan_matches_loop(g, roots):
    fold = fold_degree_one(g)
    plan = root_plan(g, roots, fold=fold)
    if not fold.is_identity:
        want_roots, want_extra = loop_corrections(fold, roots)
        assert plan.run_roots.tobytes() == want_roots.tobytes()
        assert plan.extra.tobytes() == want_extra.tobytes()
    for root in set(roots):
        core_root, corr = per_root_correction(fold, root)
        want_root, want_corr = loop_corrections(fold, [root])
        assert core_root == want_root[0]
        assert corr.tobytes() == want_corr.tobytes()


class TestRootCorrections:
    """``root_plan``'s one-pass corrections equal the per-root loop."""

    def test_components_paths_duplicates(self):
        # A 4-cycle with a 3-hop tail and a pendant, a triangle with a
        # 2-hop tail, a path (folds to one vertex) and an isolated vertex.
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5),
                        (5, 6), (2, 7), (8, 9), (9, 10), (10, 8), (10, 11),
                        (11, 12), (13, 14), (14, 15)], num_vertices=17)
        fold = fold_degree_one(g)
        assert fold.parent[6] == 5 and fold.parent[5] == 4
        assert fold.comp_label[0] != fold.comp_label[8]
        # Duplicates, roots on another root's peel path, folded and
        # core roots, in every component.
        assert_plan_matches_loop(g, [6, 6, 5, 4, 0, 7, 12, 11, 8, 14, 13,
                                     16, 6])
        assert_plan_matches_loop(g, [3])
        assert_plan_matches_loop(g, list(range(17)))

    @given(st.integers(1, 30), st.lists(st.tuples(st.integers(0, 29),
                                                  st.integers(0, 29)),
                                        max_size=40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, n, edges, data):
        g = from_edges([(u % n, v % n) for u, v in edges], num_vertices=n)
        roots = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=12))
        assert_plan_matches_loop(g, roots)


class TestDigest:
    def test_digest_stable_and_cached(self):
        g = path(6)
        a, b = fold_degree_one(g), fold_degree_one(g)
        assert a.digest() == b.digest()
        assert a.digest() is a.digest()  # memoised

    def test_digest_distinguishes_folds(self):
        assert (fold_degree_one(path(6)).digest()
                != fold_degree_one(path(7)).digest())

    def test_identity_fold_digest_differs_from_peeled(self):
        g_cycle = from_edges([(i, (i + 1) % 6) for i in range(6)])
        assert (fold_degree_one(g_cycle).digest()
                != fold_degree_one(path(6)).digest())
