"""Pinned digests of every device strategy's traces and decisions.

Each case runs :meth:`Device.run_bc` on a small graph and hashes the
canonical JSON of what the simulator charged: every root's per-level
``LevelTrace`` tuples, the makespan, the sampling/batched fixed phase
and the ``decisions`` section of the run's ``repro.trace/v1`` document.
The digests were recorded once and are never edited: any change to a
simulated cycle, a level's strategy or a decision record fails here.

Thresholds are scaled down (α/β, the frontier guard, ``n_samps``,
``batch_size``) so hybrid switches, sampling runs a steady phase and
batched runs real frontier-matrix steps on these small graphs.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.graph.build import from_edges
from repro.graph.generators import (
    figure1_graph,
    kronecker_graph,
    road_network,
    watts_strogatz,
)
from repro.gpusim.device import STRATEGIES, Device
from repro.observability import MetricsRegistry
from repro.observability.trace import trace_document

#: Strategy parameters that make every adaptive branch reachable.
PARAMS = {
    "hybrid": {"alpha": 2, "beta": 10},
    "sampling": {"n_samps": 4, "min_frontier": 10},
    "batched": {"n_samps": 4, "batch_size": 8},
}


def _directed():
    rng = np.random.default_rng(17)
    pairs = rng.integers(0, 60, size=(240, 2))
    edges = [(int(a), int(b)) for a, b in pairs if a != b]
    return from_edges(edges, num_vertices=60, undirected=False,
                      name="directed60")


def _overflow():
    """380 layers of 8 fully linked vertices: path counts overflow
    float64 unless rescaled per level, as the root loop does."""
    edges = []
    prev = [0]
    nxt = 1
    for _ in range(380):
        layer = list(range(nxt, nxt + 8))
        nxt += 8
        edges.extend((p, q) for p in prev for q in layer)
        prev = layer
    return from_edges(edges, name="overflow")


GRAPHS = {
    "fig1": figure1_graph,
    "small_sw": lambda: watts_strogatz(150, k=6, p=0.1, seed=3),
    "small_road": lambda: road_network(200, seed=11),
    "small_kron": lambda: kronecker_graph(8, edge_factor=8, seed=5),
    "directed": _directed,
}

def run_digest(graph: str, strategy: str, verify: str) -> str:
    g = _overflow() if graph == "overflow" else GRAPHS[graph]()
    kw = dict(PARAMS.get(strategy, {}))
    if graph == "overflow":
        kw.update(roots=np.arange(12), gamma=1000.0, batch_size=4)
    metrics = MetricsRegistry()
    run = Device().run_bc(g, strategy=strategy, metrics=metrics,
                          verify=verify, **kw)
    body = {
        "roots": [[int(rt.root),
                   [[lv.depth, lv.stage, lv.strategy, lv.frontier_size,
                     lv.edge_frontier, lv.cycles] for lv in rt.levels]]
                  for rt in run.trace.roots],
        "cycles": run.cycles,
        "fixed_cycles": run.fixed_cycles,
        "fixed_roots": run.fixed_roots,
        "sampling_chose_edge_parallel": run.sampling_chose_edge_parallel,
        "decisions": trace_document(metrics, run=run)["decisions"],
    }
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "fig1/work-efficient/off":
        "9c009fe43e14458249a6215246947ada73b8f55caf15b650bcb5152e71a28841",
    "fig1/work-efficient/sampled":
        "9c009fe43e14458249a6215246947ada73b8f55caf15b650bcb5152e71a28841",
    "fig1/edge-parallel/off":
        "5c3ac582bd735023aefa4cdf8003a0cb8c421b7fdabfa61ecffad873272f09cd",
    "fig1/edge-parallel/sampled":
        "5c3ac582bd735023aefa4cdf8003a0cb8c421b7fdabfa61ecffad873272f09cd",
    "fig1/vertex-parallel/off":
        "73ba3dde6c12de78b92bb8d4cc3ee30d4d5f982b05076e8a9a967095b62752a2",
    "fig1/vertex-parallel/sampled":
        "73ba3dde6c12de78b92bb8d4cc3ee30d4d5f982b05076e8a9a967095b62752a2",
    "fig1/hybrid/off":
        "e8ac6c4b481230d2440c338182aeb52088e49d2e121be212ecfd17f421f675b6",
    "fig1/hybrid/sampled":
        "e8ac6c4b481230d2440c338182aeb52088e49d2e121be212ecfd17f421f675b6",
    "fig1/sampling/off":
        "fde98e8880a8b903ea713093f71b2cc51e5f09c904791ed887874b325efa6a60",
    "fig1/sampling/sampled":
        "fde98e8880a8b903ea713093f71b2cc51e5f09c904791ed887874b325efa6a60",
    "fig1/batched/off":
        "04600333a252e2eeedeb62cbf2eba2db8f38fcd2fa457742e57236c8233f40cb",
    "fig1/batched/sampled":
        "4c27acfba43a37172715d46a58db8c1887e15e83f62b2675f23dbafdc1e010cb",
    "fig1/gpu-fan/off":
        "9647f1da7e7c0da6c014c844e6904168eb60abba38899b09f8fa22a43f021b7a",
    "fig1/gpu-fan/sampled":
        "9647f1da7e7c0da6c014c844e6904168eb60abba38899b09f8fa22a43f021b7a",
    "small_sw/work-efficient/off":
        "23e8f09e2723eb246529af64e7805f1fb608c16b595ecf5a74e99824cef1eb94",
    "small_sw/work-efficient/sampled":
        "23e8f09e2723eb246529af64e7805f1fb608c16b595ecf5a74e99824cef1eb94",
    "small_sw/edge-parallel/off":
        "e1333bddd4c32552efd4061cbc4746c9508b3383025b946d2e0db3786fcd33d8",
    "small_sw/edge-parallel/sampled":
        "e1333bddd4c32552efd4061cbc4746c9508b3383025b946d2e0db3786fcd33d8",
    "small_sw/vertex-parallel/off":
        "5aaaa2b3468f6625b343d7aadc7ee05aec999b5091019f3c91a5a300092ec5f8",
    "small_sw/vertex-parallel/sampled":
        "5aaaa2b3468f6625b343d7aadc7ee05aec999b5091019f3c91a5a300092ec5f8",
    "small_sw/hybrid/off":
        "70f892b9dc2d6b1276d919cf964b105b7ebfca94d6e61f657e10b04cc3470ae3",
    "small_sw/hybrid/sampled":
        "70f892b9dc2d6b1276d919cf964b105b7ebfca94d6e61f657e10b04cc3470ae3",
    "small_sw/sampling/off":
        "9f7bef81767c240970505914349c4d2e55bda020cdead53ae3df192d0661460c",
    "small_sw/sampling/sampled":
        "9f7bef81767c240970505914349c4d2e55bda020cdead53ae3df192d0661460c",
    "small_sw/batched/off":
        "ca2c5cdbba62a8cec3e127d912da543320dcf86ceec45be82f439432f4d7d646",
    "small_sw/batched/sampled":
        "117f4a51529decdedcdd153eb04042e9ff13cc0fe24c693c2a62c5cc59880434",
    "small_sw/gpu-fan/off":
        "d36d0b11dc691f680383c4bb969988720cbfb0fc0c607103c2f718f08b6f3adc",
    "small_sw/gpu-fan/sampled":
        "d36d0b11dc691f680383c4bb969988720cbfb0fc0c607103c2f718f08b6f3adc",
    "small_road/work-efficient/off":
        "bbedf67e28c36bdfaf09075698afc072c2f87a01156c653700739d460412420f",
    "small_road/work-efficient/sampled":
        "bbedf67e28c36bdfaf09075698afc072c2f87a01156c653700739d460412420f",
    "small_road/edge-parallel/off":
        "fde16e207f0a2d0242294b83b8f037b2115b529c155f142602c041ec29c53e3b",
    "small_road/edge-parallel/sampled":
        "fde16e207f0a2d0242294b83b8f037b2115b529c155f142602c041ec29c53e3b",
    "small_road/vertex-parallel/off":
        "7d4bc42aa16e21109c45f0155cd765ec682eae688b67d605b52ab320c0de0c88",
    "small_road/vertex-parallel/sampled":
        "7d4bc42aa16e21109c45f0155cd765ec682eae688b67d605b52ab320c0de0c88",
    "small_road/hybrid/off":
        "c0a5d868c03837df6034b4e7764c0a07c5f9804c9fb51cacf71059029003a5f5",
    "small_road/hybrid/sampled":
        "c0a5d868c03837df6034b4e7764c0a07c5f9804c9fb51cacf71059029003a5f5",
    "small_road/sampling/off":
        "f8c930f3c6ddb3d43b29134e4fa835a3f136b13777fa114b834642c0a2bd90b7",
    "small_road/sampling/sampled":
        "f8c930f3c6ddb3d43b29134e4fa835a3f136b13777fa114b834642c0a2bd90b7",
    "small_road/batched/off":
        "d9ca24b7a7634c8361d5df299e4b98d5f7bfe3b354f89dc74d9b48e97e0a8bfa",
    "small_road/batched/sampled":
        "d6aa824054b5eccbc18f63856b9670ff36785ee6390690fa9f37a124111dc7d8",
    "small_road/gpu-fan/off":
        "644f0b36b5a46dc573951b512391286cf1580e46676b88641824a0de12501deb",
    "small_road/gpu-fan/sampled":
        "644f0b36b5a46dc573951b512391286cf1580e46676b88641824a0de12501deb",
    "small_kron/work-efficient/off":
        "66e7da83a5c86d4e8ac1484ebffc569587c3e67bf574202c6f756111ac827261",
    "small_kron/work-efficient/sampled":
        "66e7da83a5c86d4e8ac1484ebffc569587c3e67bf574202c6f756111ac827261",
    "small_kron/edge-parallel/off":
        "89dfe71802a3d80f03ab3439fb0c9ea1d3a253b099ad573a5b60833d5f047ad1",
    "small_kron/edge-parallel/sampled":
        "89dfe71802a3d80f03ab3439fb0c9ea1d3a253b099ad573a5b60833d5f047ad1",
    "small_kron/vertex-parallel/off":
        "ce490d45b6f197ba652e0b00de27fe142750d67617da1c7d6671e2f68b775c8e",
    "small_kron/vertex-parallel/sampled":
        "ce490d45b6f197ba652e0b00de27fe142750d67617da1c7d6671e2f68b775c8e",
    "small_kron/hybrid/off":
        "cbb38a79ab30873f80454bd212e4e952822fe908009602d35c383fd9c154deb9",
    "small_kron/hybrid/sampled":
        "cbb38a79ab30873f80454bd212e4e952822fe908009602d35c383fd9c154deb9",
    "small_kron/sampling/off":
        "22190bfefe48a8c49c168ba0c86f01b5a386abfe7377eb50eaa0768b0ca765fc",
    "small_kron/sampling/sampled":
        "22190bfefe48a8c49c168ba0c86f01b5a386abfe7377eb50eaa0768b0ca765fc",
    "small_kron/batched/off":
        "95a3694b638ca05f9e11d222763f39b7cea3bda8310ff667e04f9b36e9d3ec87",
    "small_kron/batched/sampled":
        "10d935663c2960122cb5bc8f5bf10d240e45f8a7220eb6d3409a14d903e12ebc",
    "small_kron/gpu-fan/off":
        "174726f46f0bb808ddf8c3dcf29c13ca55352a105a7ff8f8c455a2d6054d6d10",
    "small_kron/gpu-fan/sampled":
        "174726f46f0bb808ddf8c3dcf29c13ca55352a105a7ff8f8c455a2d6054d6d10",
    "directed/work-efficient/off":
        "00f147c23023b85be06570f536ef26b400ce2c51c971496fa8523a723c9f4388",
    "directed/work-efficient/sampled":
        "00f147c23023b85be06570f536ef26b400ce2c51c971496fa8523a723c9f4388",
    "directed/edge-parallel/off":
        "25f8196d413a729c68c307c3f8893bb81620e203391c83eb0a389faf230dfced",
    "directed/edge-parallel/sampled":
        "25f8196d413a729c68c307c3f8893bb81620e203391c83eb0a389faf230dfced",
    "directed/vertex-parallel/off":
        "205032c5bdc601103b8de454f7dc9ab1374c1038f9b9f159070e6264119529cd",
    "directed/vertex-parallel/sampled":
        "205032c5bdc601103b8de454f7dc9ab1374c1038f9b9f159070e6264119529cd",
    "directed/hybrid/off":
        "7236646cd322105a788f0cd578987a754701d8f89d86bb76df0ff770f2e787ed",
    "directed/hybrid/sampled":
        "7236646cd322105a788f0cd578987a754701d8f89d86bb76df0ff770f2e787ed",
    "directed/sampling/off":
        "2bf673dd4f319ce126e46d29cf42700751131518cf73c7013448079970470d4a",
    "directed/sampling/sampled":
        "2bf673dd4f319ce126e46d29cf42700751131518cf73c7013448079970470d4a",
    "directed/batched/off":
        "56218638aaa4517eae4845c6be14c4a15e8a6e382ca1822006c45afedbdd3b73",
    "directed/batched/sampled":
        "48de11129e6d476de072f8d1197251104983effc7d7d230081425f5d8e81b219",
    "directed/gpu-fan/off":
        "22ad9981c7c38f6c9c9245dd2cdd1027776f8b43e5d82f6498289321896ba315",
    "directed/gpu-fan/sampled":
        "22ad9981c7c38f6c9c9245dd2cdd1027776f8b43e5d82f6498289321896ba315",
    "overflow/batched/off":
        "a4eb624065561334df8a75f6dd86b251407e1f52fde9cbf3a72b7604288b12fe",
    "overflow/batched/sampled":
        "c605200a7fd5ad94573f2aab04f4b771d2f804359bdadcea0b56ef6269f11d20",
}

CASES = ([(g, s, v) for g in GRAPHS for s in STRATEGIES
          for v in ("off", "sampled")]
         + [("overflow", "batched", v) for v in ("off", "sampled")])


@pytest.mark.parametrize("graph,strategy,verify", CASES,
                         ids=["-".join(c) for c in CASES])
def test_pinned_digest(graph, strategy, verify):
    key = f"{graph}/{strategy}/{verify}"
    assert run_digest(graph, strategy, verify) == GOLDEN[key]


def test_overflow_batched_runs_two_batches_of_four():
    """The overflow case's 8 steady roots run as two batches of 4: path
    counts are rescaled per level, so no batch falls back per root."""
    g = _overflow()
    run = Device().run_bc(g, strategy="batched", roots=np.arange(12),
                          n_samps=4, gamma=1000.0, batch_size=4)
    assert run.sampling_chose_edge_parallel is True
    assert run.fixed_roots == 4 and run.roots_per_trace == 4
    steady = run.trace.roots[run.fixed_roots:]
    assert [rt.root for rt in steady] == [4, 8]
    assert all(lv.strategy == "batched" for rt in steady for lv in rt.levels)
    # Roots 4-7 sit in the first layer: each reaches vertex 0 and the
    # 8 vertices of the second layer at depth 1.
    assert [lv.frontier_size for lv in steady[0].levels
            if lv.stage == "forward"][:2] == [4, 36]
