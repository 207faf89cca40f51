"""Recovery of corrupted child pointers from a linearized node vector.

The side structure is cheap: the vector of nodes in depth-first preorder
(0-edge first, terminals included), recorded while the diagram is healthy.
Preorder position gives a bound on where a child can sit: a 0-child is stored
immediately after its first parent, and a 1-child no later than one past the
parent's whole 0-subgraph.  So when one edge of node N is corrupted, the true
child is among the vector entries up to that bound whose level is below N's:
the candidate set.

Which candidate is right is decided with the unique table.  For each
candidate c, pair it with N's healthy edge and probe N's own subtable at the
bucket that key selects: the true child reproduces N's original key, so its
probe always finds N.  A wrong candidate can only be accepted when its key
happens to collide into N's bucket, which is why success improves with the
bucket count.  Fast mode returns the first accepted candidate; strict mode
collects all of them and reports ambiguity rather than ever answering wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice

from .core import BddError, Diagram, UniqueTable, dfs_preorder, is_terminal, rebuild
from .faults import HI, LO, FaultOverlay, build_unique_table, inject


class EdgeRecoveryError(BddError):
    """No candidate matched: corruption outside the single-fault model."""


class AmbiguousEdgeError(BddError):
    """Strict mode found several matching candidates."""

    def __init__(self, node: int, edge: int, candidates: list[int]):
        super().__init__(
            f"edge {edge} of node {node}: {len(candidates)} candidates match "
            f"{candidates}"
        )
        self.node = node
        self.edge = edge
        self.candidates = candidates


@dataclass
class NodeVector:
    """Trusted linearization: preorder ids, positions, levels, subgraph sizes.

    Everything here is recorded at build time, so recovery never has to trust
    the (possibly corrupted) structure for positional data.  ``subgraph``
    counts reachable nodes including terminals.
    """

    order: list[int]
    position: dict[int, int]
    level: dict[int, int]
    subgraph: dict[int, int]

    def __len__(self):
        return len(self.order)


def build_node_vector(d: Diagram) -> NodeVector:
    """Linearize a healthy diagram; keep as trusted side data.

    Rebuild after any structural change, or the positional bounds are void.
    Subgraph sizes come from one bottom-up pass that gives every node its
    reach set as a bitmask over preorder positions, which takes up to
    len(order) bits per node.
    """
    order = dfs_preorder(d, include_terminals=True)
    position = {u: p for p, u in enumerate(order)}
    level = {u: d.store.level(u) for u in order}

    def leaf(u):
        return 1 << position[u] if is_terminal(u) else None

    def split(u):
        node = d.store.node(u)
        return u, node.lo, node.hi

    reach: dict[int, int] = {}
    rebuild(d.root, leaf, split, lambda u, lo, hi: 1 << position[u] | lo | hi, reach)
    subgraph = {u: reach[u].bit_count() if u in reach else 1 for u in order}
    return NodeVector(order, position, level, subgraph)


def child_bound(v: NodeVector, d: Diagram, u: int, edge: int) -> int:
    """Last vector position the given child of u can occupy.

    Position p + 1 for the 0-child; p + |0-subgraph| + 1 for the 1-child,
    computed from the healthy 0-edge.  May exceed the vector length when the
    node sits near the end; candidate collection clamps.
    """
    p = v.position[u]
    if edge == 0:
        return p + 1
    if edge == 1:
        return p + v.subgraph[d.store.node(u).lo] + 1
    raise ValueError(f"edge must be 0 or 1, got {edge}")


def candidate_set(v: NodeVector, u: int, bound: int) -> list[int]:
    """Vector entries up to the bound that lie below u's level, in order."""
    limit = min(bound, len(v.order) - 1)
    lu = v.level[u]
    return [c for c in v.order[: limit + 1] if v.level[c] > lu]


def _matches(d: Diagram, table: UniqueTable, v: NodeVector, u: int, edge: int,
             candidates: list[int]):
    """The candidates whose probe finds u, lazily, in vector order."""
    node = d.store.node(u)
    level = v.level[u]
    for c in candidates:
        lo, hi = (c, node.hi) if edge == 0 else (node.lo, c)
        if table.contains_id(level, lo, hi, u):
            yield c


def _matching_candidates(d: Diagram, table: UniqueTable, v: NodeVector,
                         u: int, edge: int):
    """All candidates whose probe finds u, plus probe statistics."""
    candidates = candidate_set(v, u, child_bound(v, d, u, edge))
    matches = list(_matches(d, table, v, u, edge, candidates))
    return matches, candidates, candidates.index(matches[0]) + 1 if matches else 0


def reconstruct_edge(d: Diagram, table: UniqueTable, v: NodeVector, u: int,
                     edge: int, strict: bool = False) -> int:
    """Recover the corrupted 0- or 1-edge of node u.

    Fast mode returns the first candidate whose unique-table probe finds u,
    probing no further, and is wrong exactly when an earlier candidate's key
    collides into the true key's bucket.  Strict mode probes every candidate
    and raises :class:`AmbiguousEdgeError` when more than one matches, so it
    is never wrong.
    """
    found = _matches(d, table, v, u, edge, candidate_set(v, u, child_bound(v, d, u, edge)))
    matches = list(found if strict else islice(found, 1))
    if not matches:
        raise EdgeRecoveryError(
            f"edge {edge} of node {u}: no candidate matches, "
            "corruption exceeds the single-fault model"
        )
    if strict and len(matches) > 1:
        raise AmbiguousEdgeError(u, edge, matches)
    return matches[0]


# ---------------------------------------------------------------------------
# randomized campaign


@dataclass
class EdgeCampaignStats:
    """Aggregate outcome of one (diagram, bucket count) configuration."""

    table_size: int
    trials: int
    successes: int
    ambiguous: int
    wrong: int
    mean_candidate_ratio: float
    mean_probe_ratio: float
    seed: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 1.0


def edge_campaign(d: Diagram, table_sizes, trials: int, seed: int) -> list[EdgeCampaignStats]:
    """Randomized single-edge-fault recovery campaign over bucket counts.

    For each bucket count: index the healthy diagram into a fresh table of
    that size, then per trial corrupt one random edge of one random internal
    node, attempt recovery, record fast-mode correctness, strict-mode
    ambiguity, candidate-set size and probes performed, and undo the fault.
    Same seed, same stats.
    """
    vector = build_node_vector(d)
    internal = [u for u in vector.order if not is_terminal(u)]
    results = []
    for size in table_sizes:
        table = build_unique_table(d, size)
        rng = random.Random(f"{seed}|{size}")
        overlay = FaultOverlay(d.store)
        successes = ambiguous = wrong = 0
        candidate_total = 0
        probe_total = 0
        done = 0
        if internal:
            for _ in range(trials):
                u = rng.choice(internal)
                edge = rng.choice((0, 1))
                component = LO if edge == 0 else HI
                true_child = getattr(d.store.node(u), component)
                inject(d, overlay, u, component, rng)
                matches, candidates, probes = _matching_candidates(
                    d, table, vector, u, edge)
                assert matches, "true child always matches its own bucket"
                if matches[0] == true_child:
                    successes += 1
                else:
                    wrong += 1
                    # a wrong acceptance requires a bucket collision
                    node = d.store.node(u)
                    key = ((matches[0], node.hi) if edge == 0
                           else (node.lo, matches[0]))
                    assert (table.bucket_index(*key)
                            == table.bucket_index(*(
                                (true_child, node.hi) if edge == 0
                                else (node.lo, true_child))))
                if len(matches) > 1:
                    ambiguous += 1
                candidate_total += len(candidates)
                probe_total += probes
                done += 1
                overlay.restore()
        assert len(overlay) == 0
        denom = done * len(vector) if done else 1
        results.append(EdgeCampaignStats(
            table_size=size,
            trials=done,
            successes=successes,
            ambiguous=ambiguous,
            wrong=wrong,
            mean_candidate_ratio=candidate_total / denom,
            mean_probe_ratio=probe_total / denom,
            seed=seed,
        ))
    return results
