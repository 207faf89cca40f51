"""Fault injection, candidate ranges, table-probe index recovery, cost deltas."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import resilient_obdd as ro
from resilient_obdd.faults import COMPONENTS, HI, INDEX, LO

from conftest import random_raw_diagram, random_reduced


# ---------------------------------------------------------------------------
# overlay and injection


def test_inject_and_restore_round_trip(wide_range_example):
    d, _, names = wide_range_example
    overlay = ro.FaultOverlay(d.store)
    before = d.store.node(names["c"]).index
    ro.inject(d, overlay, names["c"], INDEX, random.Random(0))
    assert overlay.is_corrupt(names["c"], INDEX)
    assert overlay.original(names["c"], INDEX) == before
    assert d.store.node(names["c"]).index != before
    assert len(overlay) == 1
    overlay.restore()
    assert d.store.node(names["c"]).index == before
    assert len(overlay) == 0


def test_inject_validates_target(wide_range_example):
    d, _, names = wide_range_example
    overlay = ro.FaultOverlay(d.store)
    rng = random.Random(1)
    with pytest.raises(ValueError):
        ro.inject(d, overlay, ro.TERM0, INDEX, rng)
    with pytest.raises(ValueError):
        ro.inject(d, overlay, names["a"], "flags", rng)
    ro.inject(d, overlay, names["a"], LO, rng)
    with pytest.raises(ValueError):
        ro.inject(d, overlay, names["a"], LO, rng)  # already corrupted


def test_inject_never_writes_the_old_value():
    rng = random.Random(4)
    for _ in range(50):
        store = ro.DiagramStore(2, ro.Mode.KEEP_REDUNDANT)
        b = store.add_raw(1, ro.TERM0, ro.TERM1)
        r = store.add_raw(0, b, ro.TERM1)
        d = ro.Diagram(store, r)
        overlay = ro.FaultOverlay(store)
        ro.inject(d, overlay, r, INDEX, rng)
        assert store.node(r).index == 1  # only one wrong level exists
        overlay.restore()


def test_inject_with_no_wrong_value_possible():
    store = ro.DiagramStore(1, ro.Mode.KEEP_REDUNDANT)
    u = store.add_raw(0, ro.TERM0, ro.TERM1)
    d = ro.Diagram(store, u)
    with pytest.raises(ValueError):
        ro.inject(d, ro.FaultOverlay(store), u, INDEX, random.Random(0))


def test_inject_draws_what_a_choice_over_the_wrong_values_draws():
    d = random_reduced(random.Random(6), 6)
    internal = ro.dfs_preorder(d, include_terminals=False)
    for seed in range(40):
        rng, twin = random.Random(seed), random.Random(seed)
        overlay = ro.FaultOverlay(d.store)
        for u in internal[:5]:
            for component in COMPONENTS:
                old = getattr(d.store.node(u), component)
                count = d.n if component == INDEX else d.store.next_id()
                want = twin.choice([v for v in range(count) if v != old])
                ro.inject(d, overlay, u, component, rng)
                assert getattr(d.store.node(u), component) == want
        overlay.restore()


def test_repair_writes_and_clears(wide_range_example):
    d, _, names = wide_range_example
    overlay = ro.FaultOverlay(d.store)
    ro.inject(d, overlay, names["f"], INDEX, random.Random(2))
    overlay.repair(names["f"], INDEX, 4)
    assert d.store.node(names["f"]).index == 4
    assert not overlay.is_corrupt(names["f"], INDEX)
    assert overlay.corrupted() == []


# ---------------------------------------------------------------------------
# candidate ranges


def test_node_ranges_on_wide_range_example(wide_range_example):
    d, _, names = wide_range_example
    want = {  # derived by hand from the parent/child levels
        "a": (0, 0), "b": (1, 1), "c": (1, 3),
        "d": (2, 2), "e": (3, 3), "f": (4, 4),
    }
    for label, (lo, hi) in want.items():
        r = ro.node_range(d, names[label])
        assert (r.lower, r.upper) == (lo, hi), label
    assert ro.node_range(d, names["c"]).size == 3
    assert ro.node_range(d, names["a"]).parent_level == -1
    assert ro.node_range(d, names["f"]).child_level == 5


def test_node_range_rejects_terminals(wide_range_example):
    d, _, _ = wide_range_example
    with pytest.raises(ValueError):
        ro.node_range(d, ro.TERM0)


def test_node_range_skips_corrupted_neighbours(wide_range_example):
    d, _, names = wide_range_example
    overlay = ro.FaultOverlay(d.store)
    ro.inject(d, overlay, names["a"], INDEX, random.Random(3))
    # with the only parent unusable, c's range widens to the root bound
    r = ro.node_range(d, names["c"], overlay)
    assert (r.lower, r.upper) == (0, 3)
    overlay.restore()


def test_range_always_contains_the_true_index():
    rng = random.Random(19)
    for _ in range(30):
        d = random_reduced(rng, rng.randrange(2, 7))
        parents = ro.parent_map(d)
        for u in ro.dfs_preorder(d, include_terminals=False):
            r = ro.node_range(d, u, parents=parents)
            assert r.lower <= d.store.node(u).index <= r.upper


# ---------------------------------------------------------------------------
# table-probe recovery


def test_reconstruct_index_on_wide_range_example(wide_range_example):
    d, table, names = wide_range_example
    overlay = ro.FaultOverlay(d.store)
    ro.inject(d, overlay, names["c"], INDEX, random.Random(5))
    assert ro.reconstruct_index_ut(d, table, names["c"], overlay) == 1
    overlay.restore()


def test_reconstruct_index_every_node_every_wrong_value(wide_range_example):
    d, table, names = wide_range_example
    for label, u in names.items():
        true_index = d.store.node(u).index
        for wrong in range(d.n):
            if wrong == true_index:
                continue
            overlay = ro.FaultOverlay(d.store)
            overlay._originals[(u, INDEX)] = true_index
            d.store.node(u).index = wrong
            got = ro.reconstruct_index_ut(d, table, u, overlay)
            overlay.restore()
            assert got == true_index, (label, wrong)


def test_reconstruct_index_random_reduced_diagrams():
    rng = random.Random(29)
    for _ in range(25):
        d = random_reduced(rng, rng.randrange(3, 8))
        table = d.store.table
        nodes = ro.dfs_preorder(d, include_terminals=False)
        u = rng.choice(nodes)
        true_index = d.store.node(u).index
        overlay = ro.FaultOverlay(d.store)
        ro.inject(d, overlay, u, INDEX, rng)
        assert ro.reconstruct_index_ut(d, table, u, overlay) == true_index
        overlay.restore()


def reconstruct_index_hashing_per_level(d, table, u, overlay):
    """``reconstruct_index_ut`` as it was, hashing the key for every level."""
    r = ro.node_range(d, u, overlay)
    node = d.store.node(u)
    for level in range(r.upper, r.lower - 1, -1):
        if table.contains_id(level, node.lo, node.hi, u):
            return level
    return -1


def test_reconstruct_index_hashing_once_matches_hashing_per_level():
    rng = random.Random(53)
    for k in range(12):
        n = rng.randrange(3, 9)
        d = random_reduced(rng, n) if k % 2 else random_raw_diagram(rng, n)
        for bucket_count in (1, 8, 256):
            table = ro.build_unique_table(d, bucket_count)
            for u in ro.dfs_preorder(d, include_terminals=False):
                true_index = d.store.node(u).index
                for stored in range(d.n):  # every wrong value, and no fault
                    overlay = ro.FaultOverlay(d.store)
                    if stored != true_index:
                        overlay._originals[(u, INDEX)] = true_index
                        d.store.node(u).index = stored
                    got = ro.reconstruct_index_ut(d, table, u, overlay)
                    want = reconstruct_index_hashing_per_level(d, table, u, overlay)
                    overlay.restore()
                    assert got == want, (k, bucket_count, u, stored)


def test_build_unique_table_probes_like_the_original(wide_range_example):
    d, original, names = wide_range_example
    rebuilt = ro.build_unique_table(d, bucket_count=64)
    for u in ro.dfs_preorder(d, include_terminals=False):
        node = d.store.node(u)
        for level in range(d.n):
            hit = rebuilt.contains_id(level, node.lo, node.hi, u)
            assert hit == (level == node.index)


# ---------------------------------------------------------------------------
# recovery cost


def test_cost_report_on_wide_range_example(wide_range_example):
    d, _, names = wide_range_example
    report = ro.cost_report(d)
    assert report.node_count == 6
    assert report.total == 8
    assert report.mean == pytest.approx(8 / 6)
    assert report.per_node[names["c"]] == 3
    assert sum(1 for w in report.per_node.values() if w == 1) == 5


def test_cost_report_is_one_on_quasi_reduced():
    rng = random.Random(37)
    for _ in range(10):
        qr = ro.build_qr(random_reduced(rng, rng.randrange(2, 6)))
        report = ro.cost_report(qr)
        assert report.mean == 1.0
        assert report.total == report.node_count


def test_index_resilient_diagrams_can_cost_more_than_one():
    # resilience fixes the top of each range, not the bottom: w's only
    # parent sits two levels above it
    store = ro.DiagramStore(4, ro.Mode.KEEP_REDUNDANT)
    c3 = store.add_raw(3, ro.TERM0, ro.TERM1)
    c2 = store.add_raw(2, c3, ro.TERM1)
    c1 = store.add_raw(1, c2, ro.TERM0)
    w = store.add_raw(3, ro.TERM1, ro.TERM0)
    root = store.add_raw(0, c1, w)
    d = ro.Diagram(store, root)
    assert ro.is_index_resilient(d)
    report = ro.cost_report(d)
    assert report.per_node[w] == 3
    assert report.mean > 1.0


# ---------------------------------------------------------------------------
# merge deltas


def build_four_duplicates():
    store = ro.DiagramStore(3, ro.Mode.KEEP_REDUNDANT)
    us = [store.add_raw(2, ro.TERM0, ro.TERM1) for _ in range(4)]
    p1 = store.add_raw(1, us[0], us[1])
    p2 = store.add_raw(1, us[2], us[3])
    root = store.add_raw(0, p1, p2)
    return ro.Diagram(store, root), us


def test_merge_delta_exact_on_unit_ranges():
    d, us = build_four_duplicates()
    before = ro.truth_table(d)
    delta = ro.check_merge_delta(d, us)
    # derived: all four ranges have width 1 and the survivor keeps its own,
    # so the total drops by exactly the three deleted widths
    assert delta == -3
    assert ro.truth_table(d) == before
    assert ro.count_nodes(d) == 4


def test_merge_delta_rejects_bad_sets(wide_range_example):
    d, _, names = wide_range_example
    with pytest.raises(ValueError):
        ro.check_merge_delta(d, [names["a"]])
    with pytest.raises(ValueError):
        ro.check_merge_delta(d, [names["b"], names["c"]])  # different triples


def test_merge_delta_matches_deleted_range_widths():
    rng = random.Random(41)
    found = 0
    while found < 40:
        d = random_raw_diagram(rng, rng.randrange(3, 7))
        groups: dict[tuple[int, int, int], list[int]] = {}
        for u in ro.dfs_preorder(d, include_terminals=False):
            groups.setdefault(d.store.node(u).triple(), []).append(u)
        dups = [g for g in groups.values() if len(g) >= 2 and d.root not in g]
        if not dups:
            continue
        group = rng.choice(dups)
        parents = ro.parent_map(d)
        report = ro.cost_report(d)

        def deepest(u):
            return max((d.store.level(p) for p in parents.get(u, [])), default=-1)

        kept = max(group, key=lambda u: (deepest(u), -u))
        want = -sum(report.per_node[u] for u in group if u != kept)
        semantics = ro.truth_table(d)
        assert ro.check_merge_delta(d, group) == want
        assert ro.truth_table(d) == semantics
        found += 1


# ---------------------------------------------------------------------------
# delete deltas


def build_pinned_redundant():
    # redundant node whose child keeps a same-level parent elsewhere
    store = ro.DiagramStore(3, ro.Mode.KEEP_REDUNDANT)
    ch = store.add_raw(2, ro.TERM0, ro.TERM1)
    red = store.add_raw(1, ch, ch)
    t = store.add_raw(1, ch, ro.TERM0)
    root = store.add_raw(0, red, t)
    return ro.Diagram(store, root), red


def test_delete_delta_hand_example():
    d, red = build_pinned_redundant()
    before = ro.truth_table(d)
    delta, bound = ro.check_delete_delta(d, red)
    assert (delta, bound.lower, bound.upper) == (-1, -3, 1)
    assert (bound.r, bound.k, bound.min_g) == (1, 1, 1)
    assert bound.contains(delta)
    assert ro.truth_table(d) == before


def test_delete_delta_rejects_bad_targets(wide_range_example):
    d, _, names = wide_range_example
    with pytest.raises(ValueError):
        ro.check_delete_delta(d, names["c"])  # not redundant
    store = ro.DiagramStore(2, ro.Mode.KEEP_REDUNDANT)
    b = store.add_raw(1, ro.TERM0, ro.TERM1)
    lone = store.add_raw(0, b, b)
    with pytest.raises(ValueError):
        ro.check_delete_delta(ro.Diagram(store, lone), lone)  # root, no parents


def test_delete_delta_within_predicted_interval():
    rng = random.Random(43)
    found = 0
    while found < 60:
        d = random_raw_diagram(rng, rng.randrange(3, 7))
        parents = ro.parent_map(d)
        targets = [u for u in ro.dfs_preorder(d, include_terminals=False)
                   if ro.is_redundant(d.store, u) and parents.get(u)]
        if not targets:
            continue
        u = rng.choice(targets)
        semantics = ro.truth_table(d)
        delta, bound = ro.check_delete_delta(d, u)
        assert bound.contains(delta), (delta, bound)
        assert bound.lower == -(bound.min_g + bound.k + 1)
        assert bound.upper == bound.k * (bound.r - 1) + 1
        assert ro.truth_table(d) == semantics
        found += 1
