"""Figure 13 — runtime proportions of static vs dynamic discovery phases.

Paper: stacked runtimes of the static phases (Load, Evi, DCEnum) and the
dynamic ones (Evi(Dyn), DCEnum(Dyn)); (a) growing initial data with fixed
10 k inserts — the dynamic phases stay almost flat; (b) fixed 100 k
initial rows with growing inserts — the dynamic phases grow with the
batch.  Evidence building dominates both static and dynamic portions.
Reproduction: same two sweeps at scaled sizes.
"""

from _harness import (
    ResultTable,
    timed,
)

from repro.core.discoverer import DCDiscoverer
from repro.relational.loader import relation_from_rows
from repro.workloads import DATASETS

DATASET = "Dit"
STATIC_SIZES = (200, 400, 600, 800)
FIXED_INSERT = 80
FIXED_STATIC = 500
INSERT_SIZES = (25, 50, 100, 200)


def _run_breakdown(static_size, insert_size):
    rows = DATASETS[DATASET].rows(static_size + insert_size, seed=0)
    static_rows, delta_rows = rows[:static_size], rows[static_size:]

    relation, load_time = timed(
        lambda: relation_from_rows(DATASETS[DATASET].header, static_rows)
    )
    discoverer = DCDiscoverer(relation)
    fit = discoverer.fit()
    update = discoverer.insert(delta_rows)
    phases = {
        "Load": load_time,
        "Evi": fit.timings["evidence"],
        "DCEnum": fit.timings["enumeration"],
        "Evi(Dyn)": update.timings["evidence"],
        "DCEnum(Dyn)": update.timings["enumeration"],
    }
    return phases, fit, update


def test_fig13a_growing_static(benchmark):
    table = ResultTable(
        f"Figure 13a — phase breakdown, growing static data, "
        f"fixed {FIXED_INSERT}-row inserts ({DATASET})",
        ["static rows", "Load", "Evi", "DCEnum", "Evi(Dyn)", "DCEnum(Dyn)"],
        "fig13a_breakdown_static.txt",
    )
    dynamic_times = []
    static_times = []
    for static_size in STATIC_SIZES:
        phases, fit, update = _run_breakdown(static_size, FIXED_INSERT)
        table.add(
            static_size, phases["Load"], phases["Evi"], phases["DCEnum"],
            phases["Evi(Dyn)"], phases["DCEnum(Dyn)"],
        )
        table.add_phases(f"static={static_size}", phases)
        table.add_counters(f"static={static_size}", update)
        # The fit's own counters gate the static enumeration work
        # (``enumeration.search_nodes`` / ``hitting_sets``).
        table.add_counters(f"static={static_size} fit", fit)
        dynamic_times.append(phases["Evi(Dyn)"] + phases["DCEnum(Dyn)"])
        static_times.append(phases["Evi"] + phases["DCEnum"])
    # Shape: static cost grows much faster than dynamic cost.
    static_growth = static_times[-1] / max(static_times[0], 1e-9)
    dynamic_growth = dynamic_times[-1] / max(dynamic_times[0], 1e-9)
    table.finish(
        shape_notes=[
            f"static phases grow {static_growth:.1f}x across the sweep vs "
            f"{dynamic_growth:.1f}x for the dynamic phases "
            "(paper: dynamic solution scales very well with |r|)",
        ]
    )
    assert static_growth > dynamic_growth

    benchmark.pedantic(
        lambda: _run_breakdown(STATIC_SIZES[0], FIXED_INSERT)[0],
        rounds=1, iterations=1,
    )


def test_fig13b_growing_inserts(benchmark):
    table = ResultTable(
        f"Figure 13b — phase breakdown, fixed {FIXED_STATIC} static rows, "
        f"growing inserts ({DATASET})",
        ["insert rows", "Load", "Evi", "DCEnum", "Evi(Dyn)", "DCEnum(Dyn)"],
        "fig13b_breakdown_inserts.txt",
    )
    dynamic_times = []
    for insert_size in INSERT_SIZES:
        phases, _, update = _run_breakdown(FIXED_STATIC, insert_size)
        table.add(
            insert_size, phases["Load"], phases["Evi"], phases["DCEnum"],
            phases["Evi(Dyn)"], phases["DCEnum(Dyn)"],
        )
        table.add_phases(f"inserts={insert_size}", phases)
        table.add_counters(f"inserts={insert_size}", update)
        dynamic_times.append(phases["Evi(Dyn)"] + phases["DCEnum(Dyn)"])
    table.finish(
        shape_notes=[
            f"dynamic phase time grows "
            f"{dynamic_times[-1] / max(dynamic_times[0], 1e-9):.1f}x as the "
            "insert grows 8x (paper: dynamic performance tracks |Δr|)",
        ]
    )
    assert dynamic_times[-1] > dynamic_times[0]

    benchmark.pedantic(
        lambda: _run_breakdown(FIXED_STATIC, INSERT_SIZES[0])[0],
        rounds=1, iterations=1,
    )
