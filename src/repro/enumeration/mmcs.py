"""MMCS — minimal hitting set enumeration (Murakami & Uno [8]).

DC enumeration is hitting-set enumeration over the *complements* of the
evidences [7]: a DC is valid iff its predicate set intersects ``P \\ e``
for every evidence ``e``.  MMCS explores hitting sets depth-first while
maintaining, for every chosen vertex, its set of *critical* hyperedges
(edges hit by that vertex alone); a branch is pruned as soon as a chosen
vertex loses all critical edges, which guarantees only minimal hitting
sets are emitted — no post-minimization needed.

Trivial-DC pruning composes soundly: every subset of a satisfiable
predicate set is satisfiable, so pruning unsatisfiable partial sets never
blocks the path to a satisfiable minimal hitting set.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.bitmaps.bitutils import iter_bits
from repro.observability.probe import get_probe
from repro.predicates.space import PredicateSpace


def minimal_edges(edges: Iterable[int]) -> List[int]:
    """Deduplicated edges without supersets of other edges (a superset is
    hit whenever its subset is).  Edges go by ascending size; one is
    covered iff some kept edge has no vertex outside it, i.e. is in no
    ``kept_hit[v]`` (the kept edges containing ``v``) for ``v`` outside."""
    unique = sorted(set(edges), key=lambda edge: edge.bit_count())
    vertices = 0
    for edge in unique:
        vertices |= edge
    kept_hit = [0] * vertices.bit_length()
    kept: List[int] = []
    for edge in unique:
        outside = 0
        for vertex in iter_bits(vertices & ~edge):
            outside |= kept_hit[vertex]
        if ((1 << len(kept)) - 1) & ~outside:
            continue
        for vertex in iter_bits(edge):
            kept_hit[vertex] |= 1 << len(kept)
        kept.append(edge)
    return kept


def complement_edges(space: PredicateSpace, evidence_masks: Iterable[int]) -> List[int]:
    """Deduplicated, minimized hyperedges ``P \\ e``."""
    full_mask = space.full_mask
    return minimal_edges(full_mask & ~evidence for evidence in evidence_masks)


def mmcs_hitting_sets(
    space: PredicateSpace, edges: List[int], universe_mask: int = None
) -> List[int]:
    """All minimal, satisfiable hitting sets of ``edges`` as bitmasks.

    Edge sets (``uncov``, each member's critical edges) are int bitsets
    over edge indices, updated against ``hit_by[v]`` with ``&``/``&~``.

    :param universe_mask: restrict hitting sets to subsets of this mask
        (used by DynEI's targeted delete re-grow); edges that do not
        intersect the universe make the problem infeasible and yield [].
    """
    results = []
    if universe_mask is None:
        universe_mask = space.full_mask
    if not edges:
        return [0]
    if any(edge & universe_mask == 0 for edge in edges):
        return []
    hit_by = [0] * space.n_bits  # per vertex: the edges containing it
    for index, edge in enumerate(edges):
        for vertex in iter_bits(edge):
            hit_by[vertex] |= 1 << index
    group_mask = space.group_mask_of_bit
    satisfiable_states = space.satisfiable_states
    nodes = 0

    def recurse(current: int, crit: list, uncov: int, cand: int) -> None:
        nonlocal nodes
        nodes += 1
        if not uncov:
            results.append(current)
            return
        # Branch on the first uncovered edge with the fewest candidate
        # vertices (ascending index: the tie-break of ``min`` on a list).
        fewest = cand.bit_count() + 1  # beaten by the first edge scanned
        rest = uncov
        while rest:
            low = rest & -rest
            rest ^= low
            vertices = edges[low.bit_length() - 1] & cand
            if vertices.bit_count() < fewest:
                branch_vertices, fewest = vertices, vertices.bit_count()
        if not branch_vertices:
            return
        remaining_cand = cand
        while branch_vertices:
            low = branch_vertices & -branch_vertices
            branch_vertices ^= low
            remaining_cand ^= low
            vertex = low.bit_length() - 1
            if (current & group_mask[vertex]) not in satisfiable_states[vertex]:
                continue
            # Members of `current` keep only the critical edges the new
            # vertex does not hit; prune when one starves.
            missed = ~hit_by[vertex]
            new_crit = [member_edges & missed for member_edges in crit]
            if not all(new_crit):
                continue
            new_crit.append(uncov & hit_by[vertex])
            recurse(current | low, new_crit, uncov & missed, remaining_cand)

    recurse(0, [], (1 << len(edges)) - 1, universe_mask)
    probe = get_probe()
    if probe is not None:
        probe.inc("enumeration.search_nodes", nodes)
        probe.inc("enumeration.hitting_sets", len(results))
    return results


def mmcs_enumerate(
    space: PredicateSpace, evidence_masks: Iterable[int]
) -> List[int]:
    """Enumerate all minimal non-trivial DC masks via hitting sets."""
    edges = complement_edges(space, evidence_masks)
    return sorted(mmcs_hitting_sets(space, edges))
