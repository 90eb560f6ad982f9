"""One root plan for the degree-1 fold.

Every entry point — the API, the batched library function,
``Device.run_bc``, the resilient driver and the process pool — runs the
traversals :func:`repro.bc.preprocess.root_plan` names and returns
their sum through :meth:`RootPlan.finish`.  These tests pin that the
entry points agree: byte for byte where they sum in the same order,
and at 1e-9 against Brandes everywhere.
"""

import numpy as np
import pytest

from repro.bc import betweenness_centrality
from repro.bc.batched import batched_betweenness_centrality
from repro.bc.brandes import brandes_reference
from repro.bc.preprocess import fold_degree_one, root_plan, root_set
from repro.graph.build import from_edges
from repro.graph.generators.suite import DATASETS, make_dataset
from repro.gpusim.device import Device
from repro.gpusim.spec import GTX_TITAN
from repro.harness.runner import pick_roots
from repro.parallel import parallel_betweenness_centrality

PER_ROOT_STRATEGIES = ("work-efficient", "edge-parallel", "vertex-parallel",
                       "hybrid", "sampling", "gpu-fan")


@pytest.fixture(scope="module")
def cores():
    return {ds: make_dataset(ds, scale_factor=256, seed=0) for ds in DATASETS}


@pytest.mark.fold
@pytest.mark.parametrize("fold", [True, False], ids=["fold", "nofold"])
@pytest.mark.parametrize("ds", DATASETS)
def test_api_bytes_equal_device_bytes(cores, ds, fold):
    g = cores[ds]
    roots = pick_roots(g, 16, seed=0)
    api = betweenness_centrality(g, sources=roots, fold=fold)
    for strategy in PER_ROOT_STRATEGIES:
        run = Device(GTX_TITAN).run_bc(g, strategy=strategy, roots=roots,
                                       fold=fold)
        assert run.bc.tobytes() == api.tobytes(), strategy


# A triangle 0-1-2 with a pendant chain 2-3-4, and a separate path
# 5-6-7 (a tree component that folds to one vertex).
UNDIRECTED = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (5, 6),
                         (6, 7)], num_vertices=8, name="triangle_tail_path")
DIRECTED = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
                      num_vertices=5, undirected=False, name="directed_tail")

ROOT_CASES = {
    "pendant": [4],
    "tree-component": [6],
    "repeated": [4, 4, 1, 6, 6],
    "empty": [],
    "mixed": [0, 3, 4, 5, 7],
}


def _entry_points(g, roots, fold):
    yield "api", betweenness_centrality(g, sources=roots, fold=fold)
    yield "batched", batched_betweenness_centrality(g, sources=roots,
                                                    batch_size=2, fold=fold)
    yield "device", Device(GTX_TITAN).run_bc(g, strategy="work-efficient",
                                             roots=roots, fold=fold).bc


@pytest.mark.fold
@pytest.mark.parametrize("fold", ["on", "prepared", "off"])
@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_explicit_roots_match_brandes(case, fold):
    g, roots = UNDIRECTED, ROOT_CASES[case]
    fold_arg = {"on": True, "prepared": fold_degree_one(g),
                "off": False}[fold]
    ref = brandes_reference(g, sources=roots)
    for name, got in _entry_points(g, roots, fold_arg):
        assert np.allclose(got, ref, rtol=0, atol=1e-9), name


@pytest.mark.fold
@pytest.mark.parametrize("case", ["pendant", "repeated", "empty", "mixed"])
def test_directed_fold_is_the_identity(case):
    roots = [r for r in ROOT_CASES[case] if r < DIRECTED.num_vertices]
    plan = root_plan(DIRECTED, roots)
    assert plan.fold is None and plan.graph is DIRECTED
    ref = brandes_reference(DIRECTED, sources=roots)
    for name, got in _entry_points(DIRECTED, roots, True):
        assert np.allclose(got, ref, rtol=0, atol=1e-9), name


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("g", [UNDIRECTED, DIRECTED], ids=["undirected",
                                                           "directed"])
@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_pool_matches_brandes(case, g, workers):
    roots = [r for r in ROOT_CASES[case] if r < g.num_vertices]
    got = parallel_betweenness_centrality(g, sources=roots,
                                          num_workers=workers)
    assert np.allclose(got, brandes_reference(g, sources=roots),
                       rtol=0, atol=1e-9)


class TestPlan:
    def test_full_run_traverses_every_core_vertex_weighted(self):
        fold = fold_degree_one(UNDIRECTED)
        plan = root_plan(UNDIRECTED)
        assert plan.graph is fold.core
        assert plan.run_roots.tolist() == list(range(fold.core.num_vertices))
        assert plan.source_weights is not None
        assert plan.target_weights is plan.source_weights
        assert plan.roots.tolist() == list(range(UNDIRECTED.num_vertices))

    def test_explicit_roots_traverse_their_hosts_unweighted(self):
        fold = fold_degree_one(UNDIRECTED)
        plan = root_plan(UNDIRECTED, [4, 6, 4])
        hosts = fold.core_index[fold.host[[4, 6, 4]]]
        assert plan.run_roots.tolist() == hosts.tolist()
        assert plan.source_weights is None
        assert plan.target_weights is not None

    def test_unfolded_plan_finishes_to_the_sum_itself(self):
        plan = root_plan(UNDIRECTED, [0, 4], fold=False)
        assert plan.graph is UNDIRECTED and plan.fold is None
        acc = np.arange(8, dtype=np.float64)
        assert plan.finish(acc) is acc

    def test_finish_divides_the_additive_term(self):
        plan = root_plan(UNDIRECTED)
        acc = np.ones(plan.graph.num_vertices)
        halved = plan.finish(acc / 2.0, 2.0)
        assert np.allclose(halved, plan.finish(acc) / 2.0, rtol=0,
                           atol=1e-12)

    @pytest.mark.parametrize("bad", [[8], [-1], [0, 100]])
    def test_out_of_range_roots_raise_up_front(self, bad):
        with pytest.raises(IndexError, match="out of range"):
            root_plan(UNDIRECTED, bad)
        with pytest.raises(IndexError, match="out of range"):
            root_set(UNDIRECTED, bad)
