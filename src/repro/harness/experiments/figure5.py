"""Figure 5 — scaling by problem size for rgg, delaunay and kron.

For each graph family, sweep the scale (n doubles per step, and so
does m) and time: the sampling method, the edge-parallel baseline
(where the Jia et al. reader can load the graph at all — it rejects
the isolated vertices of rgg and kron), and GPU-FAN (until its O(n^2)
predecessor matrix exhausts device memory — the paper extrapolates the
missing points with dotted lines).

Reproduction targets: sampling beats GPU-FAN by an order of magnitude
on rgg at every scale; the gap grows with scale on delaunay; GPU-FAN
hits OOM while sampling keeps scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...bc.gpu_fan import supports_graph
from ...graph.generators.delaunay import delaunay_n
from ...graph.generators.kronecker import kron_g500
from ...graph.generators.rgg import rgg_n_2
from ...gpusim.device import Device
from ..runner import ExperimentConfig, pick_roots
from ..tables import format_table

__all__ = ["FAMILIES", "Figure5Point", "Figure5Result", "run", "render"]

FAMILIES = {
    "rgg": lambda scale, seed: rgg_n_2(scale, seed=seed),
    "delaunay": lambda scale, seed: delaunay_n(scale, seed=seed),
    "kron": lambda scale, seed: kron_g500(scale, seed=seed),
}

#: Status markers for unavailable measurements.
OOM = "OOM"
READER_REJECTS = "no-reader"


@dataclass(frozen=True)
class Figure5Point:
    family: str
    scale: int
    num_vertices: int
    num_edges: int
    sampling_seconds: float
    edge_parallel_seconds: float | str   # seconds or READER_REJECTS
    gpu_fan_seconds: float | str         # seconds or OOM


@dataclass(frozen=True)
class Figure5Result:
    points: tuple

    def family(self, name: str) -> list:
        return sorted((p for p in self.points if p.family == name),
                      key=lambda p: p.scale)


def run(cfg: ExperimentConfig | None = None,
        scales=range(10, 16), families=None,
        root_sample: int | None = None) -> Figure5Result:
    cfg = cfg or ExperimentConfig()
    device = Device(cfg.gpu)
    k = root_sample or cfg.root_sample
    points = []
    for name in (families or FAMILIES):
        build = FAMILIES[name]
        for scale in scales:
            g = build(int(scale), cfg.seed)
            roots = pick_roots(g, k, seed=cfg.seed)
            # GPU-FAN runs only where its O(n^2) footprint fits, and the
            # Jia et al. reference reader rejects graphs with isolated
            # vertices; every strategy that runs shares one sweep.
            fits = supports_graph(g, device.spec.memory_bytes)
            reads = g.isolated_vertices().size == 0
            runs = device.run_strategies(
                g, ("sampling",) + ("gpu-fan",) * fits
                + ("edge-parallel",) * reads,
                roots=roots, n_samps=max(1, roots.size // 3), fold=False)
            gf_s = runs["gpu-fan"].extrapolated_seconds() if fits else OOM
            ep_s = (runs["edge-parallel"].extrapolated_seconds() if reads
                    else READER_REJECTS)
            points.append(Figure5Point(
                family=name, scale=int(scale),
                num_vertices=g.num_vertices, num_edges=g.num_edges,
                sampling_seconds=runs["sampling"].extrapolated_seconds(),
                edge_parallel_seconds=ep_s,
                gpu_fan_seconds=gf_s,
            ))
    return Figure5Result(points=tuple(points))


def _fmt(v) -> str:
    return v if isinstance(v, str) else f"{v:.3f}"


def render(result: Figure5Result | None = None,
           cfg: ExperimentConfig | None = None, **kwargs) -> str:
    r = run(cfg, **kwargs) if result is None else result
    rows = [
        (p.family, p.scale, p.num_vertices, p.num_edges,
         f"{p.sampling_seconds:.3f}", _fmt(p.edge_parallel_seconds),
         _fmt(p.gpu_fan_seconds))
        for p in sorted(r.points, key=lambda p: (p.family, p.scale))
    ]
    return format_table(
        ["Family", "Scale", "Vertices", "Edges", "Sampling (s)",
         "Edge-parallel (s)", "GPU-FAN (s)"],
        rows,
        title=("Figure 5 — full-run time vs problem size "
               "(extrapolated from sampled roots; simulated seconds)"),
    )
