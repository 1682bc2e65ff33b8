"""Tests for the four enumeration engines and their dynamic variants.

Static correctness is anchored in a brute-force minimal-hitting-set
enumerator; dynamic correctness in static re-runs on the updated data.
"""

import random
from itertools import combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.discoverer import DCDiscoverer
from repro.enumeration import (
    DynHS,
    dfs_enumerate,
    dynei_delete,
    dynei_insert,
    invert_evidence,
    minimize_masks,
    mmcs_enumerate,
)
from repro.enumeration.inversion import maximal_masks
from repro.enumeration.mmcs import complement_edges, minimal_edges, mmcs_hitting_sets
from repro.evidence import (
    apply_delete_evidence,
    apply_insert_evidence,
    build_evidence_state,
    delete_evidence_by_recompute,
    incremental_evidence_for_insert,
    naive_evidence_set,
)
from repro.predicates import Operator, build_predicate_space
from repro.relational import relation_from_rows
from repro.workloads import DATASETS
from tests.conftest import random_rows


def brute_force_minimal_dcs(space, evidence_masks, max_size=4):
    """All satisfiable minimal hitting sets of the evidence complements,
    up to ``max_size`` predicates, by exhaustive subset enumeration."""
    complements = [space.full_mask & ~e for e in evidence_masks]
    found = []
    for size in range(0, max_size + 1):
        for bits in combinations(range(space.n_bits), size):
            mask = 0
            for bit in bits:
                mask |= 1 << bit
            if not space.satisfiable(mask):
                continue
            if any(mask & complement == 0 for complement in complements):
                continue
            if any(kept & mask == kept for kept in found):
                continue
            found.append(mask)
    return sorted(found)


class TestHelpers:
    def test_minimize_masks(self):
        assert minimize_masks([0b111, 0b011, 0b101, 0b011]) == [0b011, 0b101]

    def test_maximal_masks_dedupes_and_orders(self):
        result = maximal_masks([0b001, 0b011, 0b101, 0b011])
        assert result[0].bit_count() >= result[-1].bit_count()
        assert sorted(result) == [0b001, 0b011, 0b101]

    def test_complement_edges_minimized(self, abc_factory):
        relation = abc_factory(10, 0)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        edges = complement_edges(space, evidence)
        for i, edge in enumerate(edges):
            for j, other in enumerate(edges):
                if i != j:
                    assert not (other & edge == other), "superset edge kept"

    def test_minimal_edges_nested_and_duplicates(self):
        edges = [0b0111, 0b0011, 0b0011, 0b0100, 0b1100, 0b0110, 0b1000]
        assert sorted(minimal_edges(edges)) == [0b0011, 0b0100, 0b1000]
        # The empty edge is a subset of every edge.
        assert minimal_edges([0b101, 0, 0b1, 0]) == [0]
        assert minimal_edges([]) == []

    @pytest.mark.parametrize("seed", range(5))
    def test_minimal_edges_matches_pairwise_scan(self, seed):
        rng = random.Random(seed)
        edges = [rng.getrandbits(8) | rng.getrandbits(8) for _ in range(60)]
        reference = []
        for edge in sorted(set(edges), key=lambda edge: edge.bit_count()):
            if not any(kept & edge == kept for kept in reference):
                reference.append(edge)
        assert minimal_edges(edges) == reference


#: A space small enough to enumerate every predicate subset: two numeric
#: columns and one categorical column, no cross-column groups (14 bits).
_ORACLE_SPACE = build_predicate_space(
    relation_from_rows(["A", "B", "C"], [(1, "a", 2), (2, "b", 1)]),
    allow_cross_columns=False,
)


def _brute_force_hitting_sets(space, edges, universe_mask):
    """Minimal satisfiable hitting sets of ``edges`` inside the universe,
    by checking every subset of the universe."""

    def hits(mask):
        return all(edge & mask for edge in edges)

    found = []
    mask = universe_mask
    while True:
        if hits(mask) and space.satisfiable(mask):
            bits = [1 << bit for bit in range(space.n_bits) if (mask >> bit) & 1]
            if not any(hits(mask & ~bit) for bit in bits):
                found.append(mask)
        if not mask:
            return sorted(found)
        mask = (mask - 1) & universe_mask


class TestMMCSOracle:
    @given(
        edges=st.lists(
            st.integers(0, _ORACLE_SPACE.full_mask), min_size=0, max_size=6
        ),
        universe_mask=st.one_of(
            st.just(_ORACLE_SPACE.full_mask),
            st.integers(0, _ORACLE_SPACE.full_mask),
        ),
    )
    @example(edges=[], universe_mask=_ORACLE_SPACE.full_mask)
    @example(edges=[0], universe_mask=_ORACLE_SPACE.full_mask)
    @example(edges=[0b11, 0b1100], universe_mask=0b0101)
    def test_matches_brute_force(self, edges, universe_mask):
        space = _ORACLE_SPACE
        found = mmcs_hitting_sets(space, edges, universe_mask=universe_mask)
        assert len(found) == len(set(found)), "hitting set emitted twice"
        assert sorted(found) == _brute_force_hitting_sets(
            space, edges, universe_mask
        )

    def test_empty_family_and_infeasible(self):
        space = _ORACLE_SPACE
        assert mmcs_hitting_sets(space, []) == [0]
        assert mmcs_hitting_sets(space, [0]) == []
        assert mmcs_hitting_sets(space, [0b10], universe_mask=0b01) == []

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_satisfiability_table_matches_patterns(self, name):
        spec = DATASETS[name]
        space = build_predicate_space(
            relation_from_rows(spec.header, spec.rows(30, 0))
        )
        for group in space.groups:
            bits = sorted(group.bit_of_op.values())
            states = {
                sum(1 << bit for bit in chosen)
                for size in range(len(bits) + 1)
                for chosen in combinations(bits, size)
            }
            other_groups = space.full_mask & ~group.mask
            for bit in bits:
                assert space.satisfiable_states[bit] <= states
                for state in states:
                    joined = state | (1 << bit)
                    expected = any(
                        joined & ~pattern == 0 for pattern in group.patterns
                    )
                    assert (state in space.satisfiable_states[bit]) == expected
                    assert space.satisfiable_with(state, bit) == expected
                    # Bits of other groups never change the answer.
                    assert space.satisfiable_with(state | other_groups, bit) == expected

    def test_pairwise_satisfiable_triple_is_not(self):
        """{≠, ≤, ≥} on one column: every pair is satisfiable (<, >, =),
        the triple is not — so pairwise conflict masks cannot replace the
        per-group table."""
        space = _ORACLE_SPACE
        ne, le, ge = (
            space.bit("A", op, "A")
            for op in (Operator.NE, Operator.LE, Operator.GE)
        )
        assert space.satisfiable_with(1 << ne, le)
        assert space.satisfiable_with(1 << ne, ge)
        assert space.satisfiable_with(1 << le, ge)
        assert not space.satisfiable_with((1 << ne) | (1 << le), ge)


class TestSearchTreePinned:
    """The MMCS search tree of a static Tax-200 fit, pinned per dataset
    seed: a kernel change that alters the tree (branch-edge choice,
    pruning) changes ``search_nodes`` even when Σ stays the same."""

    @pytest.mark.parametrize(
        "seed, search_nodes, hitting_sets",
        [(0, 21742, 6530), (1, 18682, 5510), (2, 20391, 5834)],
    )
    def test_tax_200_fit(self, seed, search_nodes, hitting_sets):
        spec = DATASETS["Tax"]
        relation = relation_from_rows(spec.header, spec.rows(200, seed))
        discoverer = DCDiscoverer(relation)
        discoverer.fit()
        metrics = discoverer.instrumentation.metrics
        assert metrics.counter("enumeration.search_nodes") == search_nodes
        assert metrics.counter("enumeration.hitting_sets") == hitting_sets
        assert len(discoverer.dc_masks) == hitting_sets


class TestStaticEnumerators:
    @pytest.mark.parametrize("seed", range(5))
    def test_ei_matches_bruteforce(self, abc_factory, seed):
        relation = abc_factory(random.Random(seed).randint(4, 10), seed)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        full = invert_evidence(space, evidence)
        truncated = [m for m in full if m.bit_count() <= 4]
        assert truncated == brute_force_minimal_dcs(space, evidence)

    @pytest.mark.parametrize("seed", range(5))
    def test_all_enumerators_agree(self, abc_factory, seed):
        relation = abc_factory(random.Random(seed * 7).randint(5, 12), seed + 50)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        ei = invert_evidence(space, evidence)
        assert mmcs_enumerate(space, evidence) == ei
        assert dfs_enumerate(space, evidence) == ei
        assert DynHS(space, evidence).dc_masks == ei

    def test_no_evidence_yields_empty_dc(self, abc_factory):
        relation = abc_factory(1, 0)
        space = build_predicate_space(relation)
        assert invert_evidence(space, []) == [0]
        assert mmcs_enumerate(space, []) == [0]
        assert dfs_enumerate(space, []) == [0]
        assert DynHS(space, []).dc_masks == [0]

    def test_results_are_antichains_and_satisfiable(self, abc_factory):
        relation = abc_factory(12, 9)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        masks = invert_evidence(space, evidence)
        for i, mask in enumerate(masks):
            assert space.satisfiable(mask)
            for other in masks[i + 1 :]:
                assert not (mask & other == mask) and not (mask & other == other)

    def test_results_are_valid(self, abc_factory):
        relation = abc_factory(12, 10)
        space = build_predicate_space(relation)
        evidence = list(naive_evidence_set(relation, space))
        for mask in invert_evidence(space, evidence):
            assert not any(mask & e == mask for e in evidence)


class _Workbench:
    """One relation with maintained evidence state, for dynamic tests."""

    def __init__(self, seed, n_rows=12):
        self.rng = random.Random(seed)
        from repro.relational import relation_from_rows

        self.relation = relation_from_rows(
            ["A", "B", "C"], random_rows(self.rng, n_rows)
        )
        self.space = build_predicate_space(self.relation)
        self.state = build_evidence_state(self.relation, self.space)
        self.sigma = invert_evidence(self.space, list(self.state.evidence))

    def insert(self, count):
        rids = self.relation.insert(random_rows(self.rng, count))
        self.state.indexes.add_rows(rids)
        delta = incremental_evidence_for_insert(self.relation, self.state, rids)
        return apply_insert_evidence(self.state, delta)

    def delete(self, count):
        doomed = self.rng.sample(list(self.relation.rids()), count)
        delta = delete_evidence_by_recompute(self.relation, self.state, doomed)
        removed = apply_delete_evidence(self.state, delta)
        self.relation.delete(doomed)
        self.state.indexes.remove_rows(doomed)
        return removed

    def static_sigma(self):
        return invert_evidence(
            self.space, list(naive_evidence_set(self.relation, self.space))
        )


class TestDynEI:
    @pytest.mark.parametrize("seed", range(4))
    def test_insert_matches_static(self, seed):
        bench = _Workbench(seed)
        new_masks = bench.insert(5)
        dynamic = dynei_insert(bench.space, bench.sigma, new_masks)
        assert dynamic == bench.static_sigma()

    @pytest.mark.parametrize("seed", range(4))
    def test_delete_matches_static(self, seed):
        bench = _Workbench(seed + 20)
        removed = bench.delete(4)
        dynamic = dynei_delete(
            bench.space, bench.sigma, removed, list(bench.state.evidence)
        )
        assert dynamic == bench.static_sigma()

    def test_no_change_batches(self):
        bench = _Workbench(99)
        assert dynei_insert(bench.space, bench.sigma, []) == bench.sigma
        assert (
            dynei_delete(bench.space, bench.sigma, [], list(bench.state.evidence))
            == bench.sigma
        )

    def test_alternating_rounds(self):
        bench = _Workbench(7)
        sigma = bench.sigma
        for _ in range(3):
            new_masks = bench.insert(3)
            sigma = dynei_insert(bench.space, sigma, new_masks)
            removed = bench.delete(3)
            sigma = dynei_delete(
                bench.space, sigma, removed, list(bench.state.evidence)
            )
            assert sigma == bench.static_sigma()


class TestDynHS:
    @pytest.mark.parametrize("seed", range(3))
    def test_dynamic_rounds_match_static(self, seed):
        bench = _Workbench(seed + 40)
        enumerator = DynHS(bench.space, list(bench.state.evidence))
        for _ in range(2):
            new_masks = bench.insert(3)
            enumerator.insert_evidence(new_masks)
            assert enumerator.dc_masks == bench.static_sigma()
            removed = bench.delete(3)
            enumerator.delete_evidence(removed, list(bench.state.evidence))
            assert enumerator.dc_masks == bench.static_sigma()

    def test_delete_everything(self):
        bench = _Workbench(61, n_rows=6)
        enumerator = DynHS(bench.space, list(bench.state.evidence))
        removed = bench.delete(5)  # one row left: no evidence remains
        enumerator.delete_evidence(removed, list(bench.state.evidence))
        assert enumerator.dc_masks == [0]
        assert len(bench.state.evidence) == 0
