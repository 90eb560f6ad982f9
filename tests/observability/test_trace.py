"""Decision traces: audit fidelity, byte-determinism, explain, CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import TraceFormatError
from repro.graph.build import from_edges
from repro.gpusim import Device
from repro.observability import (
    MetricsRegistry,
    dumps,
    explain_lines,
    load_trace,
    trace_document,
    verify_decisions,
    write_trace,
)
from repro.observability.trace import decided_strategy_by_depth

STRATEGIES = ("work-efficient", "edge-parallel", "vertex-parallel",
              "hybrid", "sampling")


def _traced_run(g, strategy, roots=12, **kwargs):
    metrics = MetricsRegistry()
    run = Device().run_bc(g, strategy=strategy,
                          roots=np.arange(min(roots, g.num_vertices)),
                          metrics=metrics, **kwargs)
    return trace_document(metrics, run=run, graph=g), run


@pytest.fixture
def star_burst():
    """A star with 1000 leaves: the depth-0 -> depth-1 frontier jump
    (|delta| = 999 > alpha = 768, q_next = 1000 > beta = 512) forces the
    hybrid policy to switch to edge-parallel."""
    return from_edges([(0, i) for i in range(1, 1001)], name="star1000")


class TestDecisionAudit:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_decisions_match_executed_levels(self, small_sw, strategy):
        """Acceptance: for every strategy, the recorded decision at each
        depth equals what the level actually ran under — checked both by
        verify_decisions and directly against RootTrace.strategy_by_depth."""
        kwargs = {"n_samps": 4} if strategy == "sampling" else {}
        doc, run = _traced_run(small_sw, strategy, **kwargs)
        assert verify_decisions(doc) == []
        for rt in run.trace.roots:
            decided = decided_strategy_by_depth(doc, int(rt.root))
            executed = rt.strategy_by_depth()
            for depth, strat in executed.items():
                assert decided[depth] == strat, (
                    f"{strategy}: root {rt.root} depth {depth}")

    def test_every_decision_carries_its_inputs(self, small_sw):
        doc, _ = _traced_run(small_sw, "hybrid")
        steps = [e for e in doc["decisions"] if e["event"] == "decision.step"]
        assert steps
        for ev in steps:
            assert ev["policy"] == "hybrid"
            assert {"q_curr", "q_next", "delta_frontier",
                    "alpha", "beta"} <= set(ev)
            assert ev["delta_frontier"] == abs(ev["q_next"] - ev["q_curr"])
            assert f"alpha={ev['alpha']}" in ev["rule"]

    def test_mismatch_is_reported(self, small_sw):
        doc, _ = _traced_run(small_sw, "work-efficient")
        doc["levels"][0]["strategy"] = "edge-parallel"
        problems = verify_decisions(doc)
        assert problems and "edge-parallel" in problems[0]

    def test_sampling_decision_recorded_once_with_cutoff(self, small_sw):
        doc, run = _traced_run(small_sw, "sampling", n_samps=4)
        samp = [e for e in doc["decisions"]
                if e["event"] == "decision.sampling"]
        assert len(samp) == 1
        ev = samp[0]
        assert ev["n_samps"] == 4 and len(ev["depths"]) == 4
        assert ev["chose_edge_parallel"] == run.sampling_chose_edge_parallel
        assert "gamma*log2(n)" in ev["rule"]
        # The recorded comparison really is median vs gamma*log2(n).
        went_under = ev["median_depth"] < ev["depth_cutoff"]
        assert ev["chose_edge_parallel"] == went_under


class TestDeterminismAndIO:
    def test_identical_seed_reruns_are_byte_identical(self, small_sw):
        a, _ = _traced_run(small_sw, "hybrid")
        b, _ = _traced_run(small_sw, "hybrid")
        assert dumps(a).encode() == dumps(b).encode()

    def test_write_load_round_trip(self, tmp_path, small_sw):
        doc, _ = _traced_run(small_sw, "sampling", n_samps=4)
        path = tmp_path / "trace.json"
        write_trace(path, doc)
        assert load_trace(path) == doc
        # Round-tripped decisions replay to the same audit.
        assert explain_lines(load_trace(path)) == explain_lines(doc)

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.profile/v1"}))
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(TraceFormatError):
            load_trace(path)

    def test_load_rejects_missing_sections(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"schema": "repro.trace/v1", "decisions": [], "events": []}))
        with pytest.raises(TraceFormatError, match="levels"):
            load_trace(path)


class TestExplain:
    def test_hybrid_switch_shows_exact_alpha_beta_comparison(
            self, star_burst):
        # fold=False: the star's hybrid switch is exactly what this
        # probes, and degree-1 folding would reduce it to one vertex.
        doc, _ = _traced_run(star_burst, "hybrid", roots=1, fold=False)
        text = "\n".join(explain_lines(doc))
        assert ("|Δfrontier|=999 > alpha=768 and q_next=1000 > beta=512: "
                "edge-parallel") in text
        assert "** switch **" in text
        assert "audit: every executed level matches" in text

    def test_keep_decisions_show_alpha_comparison(self, small_sw):
        doc, _ = _traced_run(small_sw, "hybrid")
        text = "\n".join(explain_lines(doc))
        assert "<= alpha=768: keep" in text
        assert "** switch **" not in text  # 150 vertices never clear alpha

    def test_sampling_explain_shows_gamma_cutoff_and_guard(self, small_sw):
        doc, _ = _traced_run(small_sw, "sampling", n_samps=4)
        text = "\n".join(explain_lines(doc))
        assert "sampling classification over 4 sampled root(s)" in text
        assert "gamma*log2(n)=4*log2(150)" in text
        if doc["run"]["sampling_chose_edge_parallel"]:
            assert "guarded per iteration by frontier >= 512" in text

    @pytest.mark.parametrize("graph,verify,routing", [
        ("small_sw", "off", "frontier-matrix batches of 4 roots"),
        ("small_sw", "sampled", "verification checks every root"),
        ("small_road", "off", "remaining roots run per-root work-efficient"),
    ])
    def test_batched_explain_shows_classification(self, request, graph,
                                                  verify, routing):
        g = request.getfixturevalue(graph)
        doc, run = _traced_run(g, "batched", roots=20, n_samps=4,
                               batch_size=4, verify=verify)
        text = "\n".join(explain_lines(doc))
        assert "batched classification over 4 sampled root(s)" in text
        assert "gamma*log2(n)=4*log2(" in text
        assert "sampled BFS depths: min=" in text
        assert routing in text
        assert "audit: every executed level matches" in text

    def test_identical_roots_are_grouped(self, star_burst):
        doc, _ = _traced_run(star_burst, "hybrid", roots=4, fold=False)
        text = "\n".join(explain_lines(doc, root=None))
        # Leaf roots 1..3 share a decision signature; root 0 differs.
        assert "roots 1, 2, 3" in text

    def test_root_filter(self, small_sw):
        doc, _ = _traced_run(small_sw, "hybrid")
        text = "\n".join(explain_lines(doc, root=3))
        assert "root 3" in text and "root 5" not in text

    def test_frontier_evolution_table_rendered(self, small_sw):
        doc, _ = _traced_run(small_sw, "work-efficient")
        text = "\n".join(explain_lines(doc))
        assert "frontier evolution (forward sweep, all roots):" in text


class TestTraceCLI:
    PROFILE = ["profile", "--graph", "kron_g500-logn20",
               "--scale-factor", "8192", "--roots", "4",
               "--strategy", "hybrid"]

    def test_profile_trace_out_then_explain(self, tmp_path, capsys):
        """One run produces both artifacts; explain replays the trace."""
        out = tmp_path / "profile.json"
        tout = tmp_path / "trace.json"
        rc = main(self.PROFILE + ["--out", str(out),
                                  "--trace-out", str(tout)])
        assert rc == 0
        assert "decision trace" in capsys.readouterr().out
        doc = json.loads(tout.read_text())
        assert doc["schema"] == "repro.trace/v1"
        assert doc["decisions"] and doc["levels"]

        assert main(["trace", "explain", str(tout)]) == 0
        text = capsys.readouterr().out
        assert "alpha=768" in text
        assert "audit: every executed level matches" in text

    def test_trace_out_is_deterministic(self, tmp_path, capsys):
        """Same seed => byte-identical trace files."""
        blobs = []
        for tag in ("a", "b"):
            tout = tmp_path / f"{tag}.json"
            assert main(self.PROFILE + ["--out", str(tmp_path / "p.json"),
                                        "--trace-out", str(tout)]) == 0
            blobs.append(tout.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_explain_rejects_non_trace(self, tmp_path, capsys):
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["trace", "explain", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
