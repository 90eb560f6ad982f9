"""Property-based invariants of the decision-trace audit.

For random graphs and random α/β thresholds, the strategy sequence the
engine actually executed (``RootTrace.strategy_by_depth``) must be
reproducible two independent ways: from the recorded decision events,
and by replaying Algorithm 4 (:func:`select_strategy`) over the level
timeline's frontier sizes.  And a trace document must survive the
canonical-JSON round trip unchanged — the byte-determinism contract
``repro.trace/v1`` promises.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bc.policies import EDGE_PARALLEL, WORK_EFFICIENT
from repro.graph.build import from_edges
from repro.gpusim import Device
from repro.observability import (
    MetricsRegistry,
    dumps,
    trace_document,
    verify_decisions,
)
from repro.observability.trace import decided_strategy_by_depth


def select_strategy(current, q_curr_len, q_next_len, alpha, beta):
    """Algorithm 4 as written in the paper, independent of
    :class:`~repro.bc.policies.HybridPolicy`: keep ``current`` unless
    the frontier changed by more than ``alpha``, then edge-parallel iff
    the next frontier exceeds ``beta``."""
    if abs(int(q_next_len) - int(q_curr_len)) <= alpha:
        return current
    return EDGE_PARALLEL if int(q_next_len) > beta else WORK_EFFICIENT


@st.composite
def graphs(draw, max_n=16, max_m=40):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m, max_size=m,
        )
    )
    return from_edges(edges, num_vertices=n)


def _hybrid_trace(g, alpha, beta):
    metrics = MetricsRegistry()
    run = Device().run_bc(g, strategy="hybrid", alpha=alpha, beta=beta,
                          check_memory=False, metrics=metrics)
    return trace_document(metrics, run=run, graph=g), run


@given(graphs(), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=30, deadline=None)
def test_recorded_decisions_replay_algorithm4(g, alpha, beta):
    """With α/β small enough to actually trip on tiny graphs, every
    executed level's strategy must equal both the recorded decision and
    a fresh select_strategy() replay of the frontier sequence."""
    doc, run = _hybrid_trace(g, alpha, beta)
    assert verify_decisions(doc) == []
    for rt in run.trace.roots:
        executed = rt.strategy_by_depth()
        decided = decided_strategy_by_depth(doc, int(rt.root))
        forward = sorted((lv for lv in rt.levels if lv.stage == "forward"),
                         key=lambda lv: lv.depth)
        replayed = executed.get(0)
        for prev, nxt in zip(forward, forward[1:]):
            replayed = select_strategy(replayed, prev.frontier_size,
                                       nxt.frontier_size,
                                       alpha=alpha, beta=beta)
            assert executed[nxt.depth] == replayed
            assert decided[nxt.depth] == replayed


@given(graphs(), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=30, deadline=None)
def test_decision_inputs_justify_the_rule(g, alpha, beta):
    """Each decision.step event's inputs must arithmetically entail its
    outcome: the α/β comparison in the rule is the recorded numbers."""
    doc, _ = _hybrid_trace(g, alpha, beta)
    for ev in doc["decisions"]:
        if ev["event"] != "decision.step":
            continue
        assert ev["alpha"] == alpha and ev["beta"] == beta
        delta = ev["delta_frontier"]
        assert delta == abs(ev["q_next"] - ev["q_curr"])
        if delta <= alpha:
            assert ev["strategy"] == ev["previous"]
            assert f"<= alpha={alpha}" in ev["rule"]
        elif ev["q_next"] > beta:
            assert ev["strategy"] == "edge-parallel"
            assert f"> beta={beta}" in ev["rule"]
        else:
            assert ev["strategy"] == "work-efficient"
            assert f"<= beta={beta}" in ev["rule"]


@given(graphs(max_n=12, max_m=24), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=20, deadline=None)
def test_trace_round_trips_through_canonical_json(g, alpha, beta):
    doc, _ = _hybrid_trace(g, alpha, beta)
    blob = dumps(doc)
    assert dumps(json.loads(blob)) == blob  # serialisation is a fixpoint
    assert verify_decisions(json.loads(blob)) == []
