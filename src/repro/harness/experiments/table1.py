"""Table I — correlation of frontier sizes with iteration time.

For three roots of each of five structurally distinct graphs, run the
work-efficient method and correlate per-iteration simulated time with
the vertex- and edge-frontier sizes.  The reproduction target is the
*shape*: rho_{v,t} high (>~0.7) on every graph, rho_{e,t} comparable
on uniform-degree graphs but collapsing on the Kronecker graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...gpusim.device import Device
from ...metrics.correlation import frontier_time_correlations
from ..runner import ExperimentConfig, load_suite_graph, pick_roots
from ..tables import format_table

__all__ = ["GRAPHS", "Table1Result", "run", "render"]

#: The five graphs of Table I.
GRAPHS = ["rgg_n_2_20", "delaunay_n20", "kron_g500-logn20",
          "luxembourg.osm", "smallworld"]


@dataclass(frozen=True)
class Table1Result:
    rows: tuple  # of FrontierCorrelation

    def by_graph(self, name: str) -> list:
        return [r for r in self.rows if r.graph == name]

    def min_vertex_corr(self) -> float:
        return min(r.rho_vertex_time for r in self.rows)


def run(cfg: ExperimentConfig | None = None, roots_per_graph: int = 3) -> Table1Result:
    """Compute the correlation rows (3 roots x 5 graphs by default)."""
    cfg = cfg or ExperimentConfig()
    device = Device(cfg.gpu)
    rows = []
    for name in GRAPHS:
        g = load_suite_graph(name, cfg)
        roots = pick_roots(g, roots_per_graph, seed=cfg.seed)
        dev_run = device.run_bc(g, strategy="work-efficient", roots=roots,
                                fold=False)
        for rt in dev_run.trace.roots:
            rows.append(frontier_time_correlations(rt, graph_name=name))
    return Table1Result(rows=tuple(rows))


def render(result: Table1Result | None = None,
           cfg: ExperimentConfig | None = None) -> str:
    r = run(cfg) if result is None else result
    rows = [(c.graph, c.root, f"{c.rho_vertex_time:.3f}", f"{c.rho_edge_time:.3f}")
            for c in r.rows]
    return format_table(
        ["Graph", "Root", "rho_v,t", "rho_e,t"], rows,
        title="Table I — frontier-size/time correlations (work-efficient method)",
    )
