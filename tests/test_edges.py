"""Positional child bounds, candidate sets and edge recovery by table probe."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import resilient_obdd as ro
from resilient_obdd.faults import HI, LO

from conftest import build_vector_example, random_raw_diagram, random_reduced


def labelled(names):
    out = dict(names)
    out["T0"] = ro.TERM0
    out["T1"] = ro.TERM1
    return out


# ---------------------------------------------------------------------------
# the trusted vector


def test_vector_contents(vector_example):
    d, _, names = vector_example
    ids = labelled(names)
    v = ro.build_node_vector(d)
    order = ["a", "b", "c", "T1", "d", "e", "T0", "f", "g", "h"]
    assert v.order == [ids[k] for k in order]
    assert len(v) == 10
    assert v.position[ids["f"]] == 7
    assert v.level[ids["T1"]] == 5
    # derived by hand: reachable-set sizes including terminals
    want_sizes = {"a": 10, "b": 8, "c": 5, "d": 4, "e": 3,
                  "f": 6, "g": 3, "h": 7, "T0": 1, "T1": 1}
    assert {k: v.subgraph[ids[k]] for k in want_sizes} == want_sizes


def bfs_size(d, u) -> int:
    """Reachable ids from u, terminals included, by a fresh search."""
    reach, frontier = {u}, [u]
    while frontier:
        nxt = []
        for v in frontier:
            if not ro.is_terminal(v):
                node = d.store.node(v)
                for c in (node.lo, node.hi):
                    if c not in reach:
                        reach.add(c)
                        nxt.append(c)
        frontier = nxt
    return len(reach)


def test_subgraph_sizes_match_a_search_per_node():
    rng = random.Random(808)
    for trial in range(60):
        n = rng.randint(1, 9)
        if trial % 2 and n >= 2:
            d = random_raw_diagram(rng, n)
        else:
            d = random_reduced(rng, n)
        v = ro.build_node_vector(d)
        assert v.subgraph == {u: bfs_size(d, u) for u in v.order}


def test_child_bounds_hand_values(vector_example):
    d, _, names = vector_example
    v = ro.build_node_vector(d)
    assert ro.child_bound(v, d, names["b"], 0) == 2
    assert ro.child_bound(v, d, names["b"], 1) == 7
    assert ro.child_bound(v, d, names["f"], 0) == 8
    assert ro.child_bound(v, d, names["c"], 1) == 4
    assert ro.child_bound(v, d, names["a"], 1) == 9
    assert ro.child_bound(v, d, names["h"], 1) == 16  # past the end, clamped later
    with pytest.raises(ValueError):
        ro.child_bound(v, d, names["a"], 2)


def test_candidate_sets_hand_values(vector_example):
    d, _, names = vector_example
    ids = labelled(names)
    v = ro.build_node_vector(d)
    c1 = ro.candidate_set(v, names["c"], ro.child_bound(v, d, names["c"], 1))
    assert c1 == [ids["T1"], ids["d"]]
    b0 = ro.candidate_set(v, names["b"], ro.child_bound(v, d, names["b"], 0))
    assert b0 == [ids["c"]]
    a1 = ro.candidate_set(v, names["a"], ro.child_bound(v, d, names["a"], 1))
    assert len(a1) == 9


def test_true_child_always_within_bound(vector_example):
    d, _, _ = vector_example
    v = ro.build_node_vector(d)
    for u in ro.dfs_preorder(d, include_terminals=False):
        node = d.store.node(u)
        for edge, child in ((0, node.lo), (1, node.hi)):
            bound = ro.child_bound(v, d, u, edge)
            assert v.position[child] <= bound
            assert child in ro.candidate_set(v, u, bound)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.randoms(use_true_random=False))
def test_positional_bounds_on_random_diagrams(n, pyrandom):
    rng = random.Random(pyrandom.randrange(1 << 30))
    d = random_reduced(rng, n)
    v = ro.build_node_vector(d)
    for u in ro.dfs_preorder(d, include_terminals=False):
        node = d.store.node(u)
        for edge, child in ((0, node.lo), (1, node.hi)):
            bound = ro.child_bound(v, d, u, edge)
            assert v.position[child] <= bound
            assert child in ro.candidate_set(v, u, bound)


# ---------------------------------------------------------------------------
# recovery


def test_reconstruct_corrupted_one_edge(vector_example):
    d, table, names = vector_example
    v = ro.build_node_vector(d)
    overlay = ro.FaultOverlay(d.store)
    ro.inject(d, overlay, names["c"], HI, random.Random(13))
    got = ro.reconstruct_edge(d, table, v, names["c"], 1, strict=True)
    assert got == names["d"]
    overlay.restore()


def test_reconstruct_every_edge_strict_or_ambiguous(vector_example):
    d, table, names = vector_example
    v = ro.build_node_vector(d)
    rng = random.Random(17)
    for u in ro.dfs_preorder(d, include_terminals=False):
        for edge, component in ((0, LO), (1, HI)):
            true_child = getattr(d.store.node(u), component)
            overlay = ro.FaultOverlay(d.store)
            ro.inject(d, overlay, u, component, rng)
            try:
                got = ro.reconstruct_edge(d, table, v, u, edge, strict=True)
                assert got == true_child
            except ro.AmbiguousEdgeError as exc:
                assert true_child in exc.candidates
            overlay.restore()


def test_single_bucket_table_defeats_fast_mode(vector_example):
    d, _, names = vector_example
    ids = labelled(names)
    v = ro.build_node_vector(d)
    tiny = ro.build_unique_table(d, bucket_count=1)
    # with one bucket every candidate probe finds the node, so fast mode
    # returns the earliest candidate and strict mode refuses to choose
    fast = ro.reconstruct_edge(d, tiny, v, names["c"], 1, strict=False)
    assert fast == ids["T1"]
    assert fast != ids["d"]
    with pytest.raises(ro.AmbiguousEdgeError) as info:
        ro.reconstruct_edge(d, tiny, v, names["c"], 1, strict=True)
    assert info.value.candidates == [ids["T1"], ids["d"]]
    assert (info.value.node, info.value.edge) == (names["c"], 1)


def test_unrecoverable_when_both_edges_lost(vector_example):
    d, table, names = vector_example
    b = names["b"]
    node = d.store.node(b)
    original_hi = node.hi
    # break the healthy side too (model violation) with a value whose keys
    # miss b's bucket for every candidate
    v = ro.build_node_vector(d)
    candidates = ro.candidate_set(v, b, ro.child_bound(v, d, b, 0))
    for wrong in (ro.TERM0, ro.TERM1, names["e"]):
        if all(not table.contains_id(1, c, wrong, b) for c in candidates):
            node.hi = wrong
            with pytest.raises(ro.EdgeRecoveryError):
                ro.reconstruct_edge(d, table, v, b, 0)
            node.hi = original_hi
            return
    pytest.skip("every tried value collides into b's bucket")


def test_strict_mode_never_wrong_across_table_sizes():
    rng = random.Random(97)
    d = random_reduced(rng, 8)
    v = ro.build_node_vector(d)
    internal = [u for u in v.order if not ro.is_terminal(u)]
    for bucket_count in (1, 4, 64, 1024):
        table = ro.build_unique_table(d, bucket_count)
        for _ in range(60):
            u = rng.choice(internal)
            edge = rng.choice((0, 1))
            component = LO if edge == 0 else HI
            true_child = getattr(d.store.node(u), component)
            overlay = ro.FaultOverlay(d.store)
            ro.inject(d, overlay, u, component, rng)
            try:
                assert ro.reconstruct_edge(d, table, v, u, edge, strict=True) \
                    == true_child
            except ro.AmbiguousEdgeError as exc:
                assert true_child in exc.candidates
            overlay.restore()


def test_fast_mode_answers_strict_modes_first_match_and_stops_there():
    rng = random.Random(59)
    for k in range(12):
        n = rng.randrange(3, 9)
        d = random_reduced(rng, n) if k % 2 else random_raw_diagram(rng, n)
        v = ro.build_node_vector(d)
        internal = [u for u in v.order if not ro.is_terminal(u)]
        for bucket_count in (1, 8, 256):
            table = ro.build_unique_table(d, bucket_count)
            probes = []
            contains_id = table.contains_id
            table.contains_id = lambda *key: probes.append(key) or contains_id(*key)
            for u in internal:
                for edge, component in ((0, LO), (1, HI)):
                    overlay = ro.FaultOverlay(d.store)
                    ro.inject(d, overlay, u, component, rng)
                    probes.clear()
                    fast = ro.reconstruct_edge(d, table, v, u, edge)
                    fast_probes = len(probes)
                    try:
                        first = ro.reconstruct_edge(d, table, v, u, edge, strict=True)
                    except ro.AmbiguousEdgeError as exc:
                        first = exc.candidates[0]
                    overlay.restore()
                    candidates = ro.candidate_set(v, u, ro.child_bound(v, d, u, edge))
                    assert fast == first, (k, bucket_count, u, edge)
                    assert fast_probes == candidates.index(fast) + 1


# ---------------------------------------------------------------------------
# campaign


def test_edge_campaign_deterministic_and_consistent():
    rng = random.Random(101)
    d = random_reduced(rng, 9)
    first = ro.edge_campaign(d, (64, 1024), trials=120, seed=5)
    second = ro.edge_campaign(d, (64, 1024), trials=120, seed=5)
    assert first == second
    for stats in first:
        assert stats.trials == 120
        assert stats.successes + stats.wrong == stats.trials
        assert stats.ambiguous >= stats.wrong  # a wrong pick implies a rival
        assert 0.0 < stats.mean_candidate_ratio <= 1.0
        assert 0.0 < stats.mean_probe_ratio <= stats.mean_candidate_ratio
        assert stats.success_rate == stats.successes / stats.trials


def test_edge_campaign_success_grows_with_table_size():
    rng = random.Random(103)
    d = random_reduced(rng, 9)
    stats = ro.edge_campaign(d, (1, 16, 4096), trials=150, seed=11)
    rates = [s.success_rate for s in stats]
    assert rates == sorted(rates)
    assert rates[-1] > rates[0]


def test_edge_campaign_trivial_diagram():
    d = ro.Diagram(ro.DiagramStore(3), ro.TERM1)
    stats = ro.edge_campaign(d, (8,), trials=10, seed=1)
    assert stats[0].trials == 0
    assert stats[0].success_rate == 1.0
