"""DynEI — dynamic DC enumeration (Section VI).

Operates on evidence-set *changes*, not tuples:

- **Inserts** (Algorithm 2): inserts can only add evidence, so previously
  valid DCs can only become violated.  Starting from the previous
  antichain ``Σ``, only the genuinely new evidence masks
  ``E^inc = E_Δr \\ E_r`` are folded in.
- **Deletes**: removed evidence can only make DCs *non-minimal*.  Each
  removed evidence can have been critical for at most one predicate of a
  DC [7], [8], [19]; DCs for which a removed evidence was critical (the
  evidence contains all but exactly one of their predicates) are
  conservatively dropped, exactly as in the paper.

For the delete re-grow, the paper re-runs an EI pass over the entire
remaining evidence, seeded with single-predicate DCs and pruned by the
surviving DCs (Section VI-B).  This implementation exploits a sharper
structural fact to make the re-grow *targeted* while producing the same
output (cross-checked against static recomputation in the test suite):

    Every DC that is minimal for ``E_left`` but was not in the previous
    ``Σ`` is contained in some **removed** evidence.

Proof: let ``m`` be minimal-valid for ``E_left`` with ``m ∉ Σ``.  Were
``m`` valid for the old ``E`` too, each proper subset of ``m`` would be
invalid for ``E_left`` (else ``m`` is non-minimal) and hence invalid for
``E ⊇ E_left`` — making ``m`` minimal-valid for ``E``, i.e. ``m ∈ Σ``,
a contradiction.  So ``m`` was *invalid* for ``E``: some old evidence
contains it, and that evidence cannot remain (it would still invalidate
``m``) — it is one of the removed ones.  ∎

The re-grow therefore only (i) re-checks the conservatively dropped DCs
for minimality against the remaining evidence (they cannot be contained
in removed evidence, having been valid for ``E``), and (ii) enumerates,
per removed evidence, the minimal hitting sets of the remaining-evidence
complements restricted to subsets of that evidence — a tiny MMCS run.
A final minimization restores the antichain across the three sources.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.enumeration.inversion import maximal_masks, minimize_masks, refine_sigma
from repro.enumeration.mmcs import minimal_edges, mmcs_hitting_sets
from repro.enumeration.settrie import SetTrie
from repro.observability.probe import get_probe
from repro.predicates.space import PredicateSpace


def dynei_insert(
    space: PredicateSpace,
    sigma_masks: Sequence[int],
    new_evidence_masks: Iterable[int],
) -> List[int]:
    """Update the DC antichain after an insert batch.

    :param sigma_masks: minimal DC masks valid before the insert.
    :param new_evidence_masks: ``E^inc`` — evidence masks present after the
        insert that did not exist before (from
        :func:`repro.evidence.incremental.apply_insert_evidence`).
    """
    sigma = SetTrie(sigma_masks)
    refine_sigma(space, sigma, maximal_masks(new_evidence_masks))
    return sorted(sigma.masks())


def _still_minimal(dc_mask: int, remaining_masks: Sequence[int]) -> bool:
    """Whether a valid DC stays minimal: every predicate must have a
    critical evidence among the remaining ones (``dc ∖ e`` = that single
    predicate) [7], [8]."""
    marked = 0
    for evidence in remaining_masks:
        missing = dc_mask & ~evidence
        if missing and missing & (missing - 1) == 0:
            marked |= missing
            if marked == dc_mask:
                return True
    return marked == dc_mask


def dynei_delete(
    space: PredicateSpace,
    sigma_masks: Sequence[int],
    removed_evidence_masks: Sequence[int],
    remaining_evidence_masks: Iterable[int],
    verifier=None,
) -> List[int]:
    """Update the DC antichain after a delete batch.

    :param sigma_masks: minimal DC masks valid before the delete.
    :param removed_evidence_masks: evidence masks whose multiplicity
        dropped to zero (from
        :func:`repro.evidence.deletes.apply_delete_evidence`).
    :param remaining_evidence_masks: all distinct evidence masks still in
        the evidence set (``E^left``).
    :param verifier: optional
        :class:`~repro.verification.Verifier` over the *post-delete*
        relation; when given, the minimality re-check of conservatively
        dropped DCs runs as near-linear index sweeps (is ``dc ∖ {p}``
        violated?) instead of a scan over all remaining evidence.  A
        dropped DC stays valid after a delete, so any remaining evidence
        containing ``dc ∖ {p}`` necessarily lacks ``p`` — both checks are
        exactly equivalent and the output antichain is identical.
    """
    if not removed_evidence_masks:
        return sorted(sigma_masks)

    remaining = list(remaining_evidence_masks)
    full_mask = space.full_mask

    # (1) Conservative split: a removed evidence was critical for a
    # predicate of a DC iff it contained every other predicate.
    complements = [full_mask & ~evidence for evidence in removed_evidence_masks]
    survivors: List[int] = []
    dropped: List[int] = []
    for dc_mask in sigma_masks:
        was_critical = False
        for complement in complements:
            hit = dc_mask & complement
            if hit and hit & (hit - 1) == 0:
                was_critical = True
                break
        if was_critical:
            dropped.append(dc_mask)
        else:
            survivors.append(dc_mask)

    # (2) Exact minimality re-check of the conservatively dropped DCs.
    if verifier is not None:
        readded = [dc_mask for dc_mask in dropped if verifier.is_minimal(dc_mask)]
    else:
        readded = [
            dc_mask for dc_mask in dropped if _still_minimal(dc_mask, remaining)
        ]

    # (3) Targeted re-grow: new minimal DCs live inside removed evidences.
    remaining_complements = [full_mask & ~evidence for evidence in remaining]
    new_masks: List[int] = []
    for removed in removed_evidence_masks:
        restricted = minimal_edges(
            [complement & removed for complement in remaining_complements]
        )
        new_masks.extend(
            mmcs_hitting_sets(space, restricted, universe_mask=removed)
        )

    probe = get_probe()
    if probe is not None:
        probe.inc("enumeration.dcs_dropped", len(dropped))
        probe.inc("enumeration.dcs_readded", len(readded))
        probe.inc("enumeration.dcs_regrown", len(new_masks))
    return sorted(minimize_masks(survivors + readded + new_masks))
