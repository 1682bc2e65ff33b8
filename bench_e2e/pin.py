"""Regenerate ``pinned.json``: the Σ digest of every fit-pool dataset.

Run from the repository root after a change that is *meant* to change
the discovered DCs (it should never be needed otherwise)::

    python3 bench_e2e/pin.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

from workloads import FIT_DATASET, PINNED_PATH, SIZES, sigma_digest  # noqa: E402


def main() -> None:
    from repro.core.discoverer import DCDiscoverer
    from repro.relational.loader import relation_from_rows
    from repro.workloads import DATASETS

    spec = DATASETS[FIT_DATASET]
    pinned = {}
    for scale in ("full", "tiny"):
        size = SIZES[scale]["fit"]
        digests = {}
        for seed in range(size.pool):
            discoverer = DCDiscoverer(
                relation_from_rows(spec.header, spec.rows(size.rows, seed))
            )
            discoverer.fit()
            digests[str(seed)] = sigma_digest(discoverer.dc_masks)
        pinned[f"{FIT_DATASET}/{size.rows}"] = digests
    with open(PINNED_PATH, "w") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
