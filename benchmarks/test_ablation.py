"""Ablation benchmarks for the design choices DESIGN.md calls out.

These do not correspond to a paper table; they isolate the mechanisms
the paper's analysis attributes its results to, by toggling one model
knob at a time:

* chunk-serialisation (warp/block load imbalance) — without it the
  work-efficient method would not lose on scale-free graphs at all;
* the hybrid thresholds alpha/beta — degenerate settings collapse the
  hybrid to one of the fixed strategies;
* the asymmetric mispick costs that justify starting work-efficient;
* GPU-FAN's device-wide synchronisation penalty.
"""

import numpy as np
import pytest
from conftest import run_once

from repro.graph.generators import kronecker_graph, road_network, watts_strogatz
from repro.gpusim.cost import CostModel
from repro.gpusim.device import Device
from repro.gpusim.spec import GTX_TITAN
from repro.harness.runner import pick_roots


def _run_seconds(device, g, strategy, roots, **kw):
    # The paper's algorithm: no degree-1 folding.
    return device.run_bc(g, strategy=strategy, roots=roots, fold=False,
                         **kw).seconds


def test_ablation_imbalance_model(benchmark):
    """Disable chunk serialisation: the work-efficient penalty on the
    Kronecker graph largely disappears, confirming load imbalance (not
    asymptotic work) is what hurts WE on scale-free inputs."""
    g = kronecker_graph(13, edge_factor=16, seed=0)
    roots = pick_roots(g, 8, seed=0)

    def measure():
        with_imb = Device(GTX_TITAN, CostModel())
        without = Device(GTX_TITAN, CostModel().without_imbalance())
        return (
            _run_seconds(with_imb, g, "work-efficient", roots),
            _run_seconds(without, g, "work-efficient", roots),
            _run_seconds(with_imb, g, "edge-parallel", roots),
        )

    we_imb, we_flat, ep = run_once(benchmark, measure)
    assert we_imb > 2 * we_flat          # imbalance dominates WE's cost
    assert we_imb > ep                   # WE loses with imbalance...
    assert we_flat < 2.0 * ep            # ...and is competitive without


def test_ablation_hybrid_thresholds(benchmark):
    """Degenerate alpha/beta collapse the hybrid into a fixed strategy;
    sane scaled settings land at-or-better than the best fixed one."""
    g = watts_strogatz(12_000, k=10, p=0.1, seed=0)
    roots = pick_roots(g, 8, seed=0)
    dev = Device(GTX_TITAN)

    def measure():
        we = _run_seconds(dev, g, "work-efficient", roots)
        ep = _run_seconds(dev, g, "edge-parallel", roots)
        # alpha = infinity: never reconsider => stays work-efficient.
        never = _run_seconds(dev, g, "hybrid", roots,
                             alpha=10**9, beta=64)
        # alpha = 0, beta = 0: any change selects edge-parallel.
        always_ep = _run_seconds(dev, g, "hybrid", roots, alpha=0, beta=0)
        tuned = _run_seconds(dev, g, "hybrid", roots, alpha=96, beta=64)
        return we, ep, never, always_ep, tuned

    we, ep, never, always_ep, tuned = run_once(benchmark, measure)
    assert never == pytest.approx(we, rel=1e-6)
    assert always_ep <= ep * 1.1  # EP everywhere except the first level
    assert tuned <= min(we, ep) * 1.1


def test_ablation_mispick_asymmetry(benchmark):
    """Section IV-B: wrongly using WE costs ~2.2x worst case; wrongly
    using EP can cost >10x — hence the work-efficient default."""
    kron = kronecker_graph(13, edge_factor=16, seed=0)
    road = road_network(25_000, seed=0)
    dev = Device(GTX_TITAN)

    def measure():
        kron_roots = pick_roots(kron, 8, seed=0)
        road_roots = pick_roots(road, 8, seed=0)
        we_wrong = (_run_seconds(dev, kron, "work-efficient", kron_roots)
                    / _run_seconds(dev, kron, "edge-parallel", kron_roots))
        ep_wrong = (_run_seconds(dev, road, "edge-parallel", road_roots)
                    / _run_seconds(dev, road, "work-efficient", road_roots))
        return we_wrong, ep_wrong

    we_wrong, ep_wrong = run_once(benchmark, measure)
    assert ep_wrong > we_wrong       # the asymmetry itself
    assert ep_wrong > 3.0            # EP mispick is expensive...
    assert we_wrong < 6.0            # ...WE mispick is bounded


def test_ablation_gpu_fan_sync(benchmark):
    """GPU-FAN's fine-grained-only layout needs a device-wide barrier
    per iteration; removing that penalty (sync multiplier 1) closes
    most of its gap on a small high-diameter graph."""
    g = road_network(8_000, seed=0)
    roots = pick_roots(g, 6, seed=0)

    def measure():
        dev = Device(GTX_TITAN, CostModel())
        cheap_sync = Device(
            GTX_TITAN, CostModel(gpu_fan_sync_multiplier=1.0)
        )
        return (
            _run_seconds(dev, g, "gpu-fan", roots),
            _run_seconds(cheap_sync, g, "gpu-fan", roots),
        )

    expensive, cheap = run_once(benchmark, measure)
    assert expensive > 3 * cheap


def test_ablation_streaming_cap(benchmark):
    """The long-row streaming cap: without it a single hub serialises
    at the scattered per-edge cost and the work-efficient method is
    absurdly penalised on hubs (the Table I footnote)."""
    g = kronecker_graph(12, edge_factor=16, seed=0)
    roots = pick_roots(g, 6, seed=0)

    def measure():
        capped = Device(GTX_TITAN, CostModel())
        uncapped = Device(
            GTX_TITAN, CostModel(stream_threshold=10**9)
        )
        return (
            _run_seconds(capped, g, "work-efficient", roots),
            _run_seconds(uncapped, g, "work-efficient", roots),
        )

    capped, uncapped = run_once(benchmark, measure)
    assert uncapped > 1.5 * capped


def test_ablation_cas_vs_prefix_sum_enqueue(benchmark):
    """Section IV-A: Merrill et al.'s prefix-sum enqueue wins when all
    SMs cooperate on one traversal, but at the paper's per-SM
    granularity every SM scans its whole candidate set alone — the CAS
    enqueue wins."""
    g = watts_strogatz(12_000, k=10, p=0.1, seed=0)
    roots = pick_roots(g, 8, seed=0)

    def measure():
        cas = Device(GTX_TITAN, CostModel(enqueue="cas"))
        scan = Device(GTX_TITAN, CostModel(enqueue="prefix-sum"))
        return (
            _run_seconds(cas, g, "work-efficient", roots),
            _run_seconds(scan, g, "work-efficient", roots),
        )

    cas_s, scan_s = run_once(benchmark, measure)
    assert scan_s > 1.2 * cas_s
