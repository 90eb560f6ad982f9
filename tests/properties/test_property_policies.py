"""``Policy.decide_levels`` is the scalar ``decide`` rule, in array form.

For every policy, the strategy of each depth that ``decide_levels``
returns must be what replaying ``initial`` and then ``decide`` once
per level gives — including on the rule's boundaries (a frontier change
of exactly α, a next frontier of exactly β or ``min_frontier``), on
empty levels and on one-level roots.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bc.policies import (
    EDGE_PARALLEL,
    GPU_FAN,
    VERTEX_PARALLEL,
    WORK_EFFICIENT,
    BatchedPolicy,
    FixedPolicy,
    FrontierGuardPolicy,
    HybridPolicy,
)


def replay(policy, sizes):
    """The strategy of every depth, one ``decide`` call per level."""
    strategies = []
    strategy = policy.initial()
    for depth, size in enumerate(sizes):
        strategies.append(strategy)
        q_next = sizes[depth + 1] if depth + 1 < len(sizes) else 0
        strategy = policy.decide(strategy, size, q_next).strategy
    return strategies


def near(*points):
    """Sizes on and next to the given thresholds, plus zero."""
    values = {0, 1}
    for p in points:
        values.update(v for v in (p - 1, p, p + 1) if v >= 0)
    return sorted(values)


@st.composite
def hybrid_cases(draw):
    alpha = draw(st.integers(0, 40))
    beta = draw(st.integers(0, 40))
    # A frontier change of exactly alpha needs sizes alpha apart; beta
    # and beta + alpha put q_next on beta after such a change.
    pool = near(alpha, beta, alpha + beta, 2 * alpha + 1)
    sizes = draw(st.lists(st.one_of(st.sampled_from(pool),
                                    st.integers(0, 120)), max_size=24))
    return HybridPolicy(alpha=alpha, beta=beta), sizes


@st.composite
def guard_cases(draw):
    min_frontier = draw(st.integers(0, 40))
    sizes = draw(st.lists(st.one_of(st.sampled_from(near(min_frontier)),
                                    st.integers(0, 120)), max_size=24))
    return FrontierGuardPolicy(min_frontier), sizes


@st.composite
def constant_cases(draw):
    policy = draw(st.sampled_from([
        FixedPolicy(WORK_EFFICIENT), FixedPolicy(EDGE_PARALLEL),
        FixedPolicy(VERTEX_PARALLEL), FixedPolicy(GPU_FAN),
        BatchedPolicy(4, 2.0, 5),
    ]))
    return policy, draw(st.lists(st.integers(0, 1000), max_size=24))


def assert_matches(policy, sizes):
    got = policy.decide_levels(sizes)
    assert got.shape == (len(sizes),)
    assert got.tolist() == replay(policy, sizes)


@given(hybrid_cases())
@settings(max_examples=400, deadline=None)
@example((HybridPolicy(alpha=5, beta=7), [2, 7, 12, 7, 2]))  # |Δ| == α
@example((HybridPolicy(alpha=5, beta=7), [1, 7, 8, 1]))  # q_next == β
@example((HybridPolicy(alpha=5, beta=7), [1, 8, 8, 0, 0]))  # zero tail
@example((HybridPolicy(alpha=5, beta=7), [0, 20, 0, 20]))  # empty levels
@example((HybridPolicy(alpha=5, beta=7), [9]))  # one level
@example((HybridPolicy(alpha=5, beta=7), []))
def test_hybrid(case):
    assert_matches(*case)


@given(guard_cases())
@settings(max_examples=300, deadline=None)
@example((FrontierGuardPolicy(6), [6, 6, 5, 6, 7]))  # q_next == min
@example((FrontierGuardPolicy(6), [1, 9, 0, 0]))  # zero tail
@example((FrontierGuardPolicy(0), [0, 0, 3]))  # everything guards in
@example((FrontierGuardPolicy(6), [40]))  # one level
@example((FrontierGuardPolicy(6), []))
def test_frontier_guard(case):
    assert_matches(*case)


@given(constant_cases())
@settings(max_examples=100, deadline=None)
@example((FixedPolicy(VERTEX_PARALLEL), [1]))
@example((BatchedPolicy(4, 2.0, 5), [3, 0, 0]))
def test_constant_policies(case):
    assert_matches(*case)
