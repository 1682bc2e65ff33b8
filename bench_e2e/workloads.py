"""The benchmark's three workloads: ``fit``, ``churn`` and ``serve``.

Each workload builds its inputs, sets up (several times, reporting the
median), runs a fixed op sequence, and then checks the program's output
outside the timed region.  The op count follows from ``seconds`` and a
nominal per-op cost, never from a deadline, so every run of one
workload at one ``seconds`` does exactly the same ops.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List

from harness import repeat_setup, timed_ops

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


@dataclass(frozen=True)
class Size:
    """Input sizes of one workload at one scale."""

    rows: int
    nominal_op_s: float  # converts --seconds into a fixed op count
    pool: int = 0  # fit: pinned dataset seeds to sample from
    setup_repeats: int = 3  # before the ops, and again after them


SIZES: Dict[str, Dict[str, Size]] = {
    "full": {
        "fit": Size(rows=200, nominal_op_s=0.67, pool=30),
        "churn": Size(rows=300, nominal_op_s=0.77, setup_repeats=5),
        "serve": Size(rows=120, nominal_op_s=0.45, setup_repeats=5),
    },
    "tiny": {
        "fit": Size(rows=40, nominal_op_s=0.05, pool=4, setup_repeats=2),
        "churn": Size(rows=60, nominal_op_s=0.05, setup_repeats=2),
        "serve": Size(rows=30, nominal_op_s=0.1, setup_repeats=2),
    },
}

FIT_DATASET = "Tax"
CHURN_DATASET = "Claim"
SERVE_DATASET = "Tax"
#: Op costs depend strongly on the data: the p50 of a 5-row Claim
#: delete ranged 238-617 ms over four dataset seeds, and the served
#: write p50 on Tax 216-424 ms over five.  So the churn and serve data
#: are pinned; the run seed only orders the served inserts.
CHURN_DATA_SEED = 0
SERVE_DATA_SEED = 0
CHURN_BATCH = 5
SERVE_CLIENTS = 2
#: Fewest ops a run makes, however short ``--seconds`` is.
MIN_OPS = 2


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    setup_s: float
    latencies: Dict[str, List[float]]  # ms per op, by op type
    wall_s: float  # wall time of the whole fixed op sequence
    primary: str  # op type behind op_p50_ms
    attempted: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    failed: int = 0
    batch_mean: float = 0.0  # serve: requests per coalesced cycle

    @property
    def n_ops(self) -> int:
        return sum(len(values) for values in self.latencies.values())

    @property
    def op_s(self) -> float:
        return sum(sum(values) for values in self.latencies.values()) / 1000.0


def setup_median(setup, size: Size, earlier: List[float], discard=None) -> float:
    """Median set-up time over the ``earlier`` repeats (made before the
    ops, and on ``fit`` between them) and ``size.setup_repeats`` more
    made after them, so a short slow or fast spell of the host cannot
    set ``setup_s`` alone."""
    after, last = repeat_setup(setup, size.setup_repeats, discard)
    if discard is not None:
        discard(last)
    return statistics.median(earlier + after)


def op_count(size: Size, seconds: float) -> int:
    return max(MIN_OPS, round(seconds / size.nominal_op_s))


def sigma_digest(masks) -> str:
    """Digest of a DC set: sha256 over the sorted hex masks."""
    text = ",".join(format(mask, "x") for mask in sorted(masks))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pinned() -> dict:
    with open(PINNED_PATH) as handle:
        return json.load(handle)


def _relation(dataset: str, rows):
    from repro.relational.loader import relation_from_rows
    from repro.workloads import DATASETS

    return relation_from_rows(DATASETS[dataset].header, rows)


def _counter(discoverer, name: str) -> int:
    return discoverer.instrumentation.metrics.counter(name)


WORK_COUNTERS = (
    "enumeration.search_nodes",
    "enumeration.hitting_sets",
    "verification.checks",
    "verification.minimality_checks",
    "durability.wal_bytes",
)


# -- fit ------------------------------------------------------------------


def fit_seeds(seed: int, n_ops: int, pool: int) -> List[int]:
    """The dataset seeds one fit run uses, in order: whole seeded
    permutations of the pinned pool, as many as cover ``n_ops``.  So
    every seed fits every pool dataset equally often, the same work in
    another order.  At full size that is two passes: the host's speed
    drifts over tens of seconds, and with one 20-second pass the fit
    p50 spread over runs was 1.7 times that of two passes."""
    rng = random.Random(seed)
    picks: List[int] = []
    while len(picks) < n_ops:
        picks.extend(rng.sample(range(pool), pool))
    return picks


def run_fit(seed: int, seconds: float, scale: str, ledger=None) -> Outcome:
    from repro.core.discoverer import DCDiscoverer
    from repro.workloads import DATASETS

    size = SIZES[scale]["fit"]
    spec = DATASETS[FIT_DATASET]
    dataset_seeds = fit_seeds(seed, op_count(size, seconds), size.pool)

    def setup():
        return [
            _relation(FIT_DATASET, spec.rows(size.rows, s)) for s in range(size.pool)
        ]

    setup_times, relations = repeat_setup(setup, size.setup_repeats)
    results = []

    def fit_op(relation):
        discoverer = DCDiscoverer(relation)
        discoverer.fit()
        return discoverer

    def after_fit(kind, discoverer, elapsed):
        results.append(
            (
                sigma_digest(discoverer.dc_masks),
                len(discoverer.dc_masks),
                len(discoverer.evidence_set),
                {name: _counter(discoverer, name) for name in WORK_COUNTERS},
            )
        )
        # One more set-up after every second fit.  The host's speed
        # changes from one second to the next, so set-ups taken only
        # before and after the ops sample two short spells of it; these
        # sample the whole run, as the fits do.  (Data generation calls
        # no entry point the ledger wraps.)
        if len(results) % 2 == 0:
            setup_times.extend(repeat_setup(setup, 1)[0])

    ops = [("fit", functools.partial(fit_op, relations[s])) for s in dataset_seeds]
    latencies, wall_s = timed_ops(ops, ledger, on_result=after_fit)
    setup_s = setup_median(setup, size, setup_times)

    outcome = Outcome(setup_s, latencies, wall_s, "fit", len(ops))
    pinned = load_pinned()[f"{FIT_DATASET}/{size.rows}"]
    counts = {name: 0 for name in WORK_COUNTERS}
    counts["sigma.size"] = counts["evidence.size"] = 0
    for dataset_seed, (digest, n_sigma, n_evidence, work) in zip(dataset_seeds, results):
        expected = pinned[str(dataset_seed)]
        if digest != expected:
            outcome.errors.append(
                f"fit: Σ digest {digest} for dataset seed {dataset_seed}, pinned {expected}"
            )
            outcome.failed += 1
        counts["sigma.size"] += n_sigma
        counts["evidence.size"] += n_evidence
        for name, value in work.items():
            counts[name] += value
    outcome.counts = counts
    return outcome


# -- churn ----------------------------------------------------------------


def run_churn(seed: int, seconds: float, scale: str, ledger=None) -> Outcome:
    """Sliding-window churn over the pinned Claim stream (``seed`` is
    unused: see :data:`CHURN_DATA_SEED`)."""
    from repro.core.backends import make_backend
    from repro.core.discoverer import DCDiscoverer
    from repro.evidence.builder import build_evidence_state
    from repro.workloads import DATASETS

    size = SIZES[scale]["churn"]
    steps = op_count(size, seconds)
    stream = DATASETS[CHURN_DATASET].rows(
        size.rows + CHURN_BATCH * steps, CHURN_DATA_SEED
    )

    def setup():
        discoverer = DCDiscoverer(_relation(CHURN_DATASET, stream[: size.rows]))
        discoverer.fit()
        return discoverer

    setup_before, discoverer = repeat_setup(setup, size.setup_repeats)
    alive = list(discoverer.relation.rids())  # oldest first
    before = {name: _counter(discoverer, name) for name in WORK_COUNTERS}

    def insert(batch):
        result = discoverer.insert(batch)
        alive.extend(result.rids)
        return result

    def delete_oldest():
        victims = alive[:CHURN_BATCH]
        del alive[:CHURN_BATCH]
        return discoverer.delete(victims)

    ops = []
    for step in range(steps):
        start = size.rows + CHURN_BATCH * step
        batch = stream[start : start + CHURN_BATCH]
        ops.append(("insert", functools.partial(insert, batch)))
        ops.append(("delete", delete_oldest))
    latencies, wall_s = timed_ops(ops, ledger)
    setup_s = setup_median(setup, size, setup_before)

    outcome = Outcome(setup_s, latencies, wall_s, "delete", len(ops))
    outcome.counts = {
        name: _counter(discoverer, name) - before[name] for name in WORK_COUNTERS
    }
    outcome.counts["sigma.size"] = len(discoverer.dc_masks)
    outcome.counts["evidence.size"] = len(discoverer.evidence_set)
    outcome.counts["relation.size"] = len(discoverer.relation)

    # The paper's contract: the maintained evidence and Σ equal a static
    # rediscovery of the final relation.  The rediscovery keeps the
    # predicate space frozen at fit() time, as the engine does: a space
    # rebuilt from the final rows could legitimately differ.
    relation = discoverer.relation
    fresh = _relation(CHURN_DATASET, list(relation.rows()))
    state = build_evidence_state(fresh, discoverer.space)
    backend = make_backend("dynei", discoverer.space)
    backend.bootstrap(list(state.evidence))
    oracle = sorted(mask for mask in backend.masks if mask)
    if state.evidence.counts != discoverer.evidence_set.counts:
        outcome.errors.append("churn: maintained evidence differs from a static rebuild")
        outcome.failed += 1
    if oracle != sorted(discoverer.dc_masks):
        outcome.errors.append(
            f"churn: maintained Σ ({len(discoverer.dc_masks)} DCs) differs "
            f"from a static rediscovery of the final relation ({len(oracle)} DCs)"
        )
        outcome.failed += 1
    if len(relation) != size.rows:
        outcome.errors.append(f"churn: |r| drifted to {len(relation)}")
        outcome.failed += 1
    return outcome


# -- serve ----------------------------------------------------------------


class _Served:
    """One started service over a fresh durable session."""

    def __init__(self, directory: str, initial_rows):
        from repro.core.discoverer import DCDiscoverer
        from repro.durability.session import DurableSession
        from repro.service.client import ServiceClient
        from repro.service.config import ServiceConfig
        from repro.service.server import DCService

        self.directory = directory
        self.session = DurableSession.create(
            DCDiscoverer(_relation(SERVE_DATASET, initial_rows)), directory
        )
        self.service = DCService(self.session, ServiceConfig(port=0))
        self.service.start()
        ServiceClient(base_url=self.service.url).wait_ready()

    def close(self) -> None:
        self.service.shutdown()
        shutil.rmtree(self.directory, ignore_errors=True)


def _serve_client(url: str, rows: list, log: list, errors: list, barrier) -> None:
    """Closed loop: insert one row, read ``/dcs``, check the next row.

    The clients start each round's write together (``barrier``), so the
    two writes share one coalesced cycle.  Unsynchronised, a write
    waited for one cycle or for two, depending on how the clients
    happened to align, and the write p50 fell between the two.
    """
    from repro.service.client import ServiceClient

    client = ServiceClient(base_url=url)
    try:
        for index, row in enumerate(rows):
            barrier.wait(timeout=60)
            start = time.perf_counter()
            ack = client.insert([row])
            log.append(("write", time.perf_counter() - start, ack, row))
            start = time.perf_counter()
            dcs = client.dcs()
            log.append(("read", time.perf_counter() - start, {"seq": dcs["seq"]}, None))
            candidate = rows[(index + 1) % len(rows)]
            start = time.perf_counter()
            check = client.check(candidate)
            log.append(("read", time.perf_counter() - start, {"seq": check["seq"]}, None))
    except Exception as exc:  # reported as a failed op, never swallowed
        errors.append(f"serve client: {type(exc).__name__}: {exc}")
        barrier.abort()  # release the other client


def run_serve(
    seed: int, seconds: float, scale: str, ledger=None, workdir: str = ".bench_work"
) -> Outcome:
    from repro.core.discoverer import DCDiscoverer
    from repro.core.state_io import state_to_bytes
    from repro.workloads import DATASETS

    size = SIZES[scale]["serve"]
    rounds = op_count(size, seconds)
    stream = DATASETS[SERVE_DATASET].rows(
        size.rows + SERVE_CLIENTS * rounds, SERVE_DATA_SEED
    )
    initial = stream[: size.rows]
    # Round k sends arrival rows 2k and 2k+1, one per client; the seed
    # decides which client sends which.  (A full shuffle of the arrival
    # order moved the write p50 by 20%: Σ grows along another path.)
    rng = random.Random(seed)
    client_rows: List[list] = [[] for _ in range(SERVE_CLIENTS)]
    for start in range(size.rows, len(stream), SERVE_CLIENTS):
        pair = [list(row) for row in stream[start : start + SERVE_CLIENTS]]
        rng.shuffle(pair)
        for client, row in zip(client_rows, pair):
            client.append(row)
    os.makedirs(workdir, exist_ok=True)
    served: List[_Served] = []  # started and not yet closed
    sessions = itertools.count()

    def setup():
        directory = os.path.join(workdir, f"session-{next(sessions)}")
        served.append(_Served(directory, initial))
        return served[-1]

    def discard(entry):
        served.remove(entry)
        entry.close()

    try:
        setup_before, current = repeat_setup(setup, size.setup_repeats, discard)
        instrumentation = current.service.instrumentation
        batches_before = instrumentation.metrics.counter("service.batches_total")
        coalesced_before = instrumentation.metrics.counter(
            "service.coalesced_requests_total"
        )
        before = {
            name: instrumentation.metrics.counter(name) for name in WORK_COUNTERS
        }
        logs: List[list] = [[] for _ in range(SERVE_CLIENTS)]
        errors: List[str] = []
        barrier = threading.Barrier(SERVE_CLIENTS)
        threads = [
            threading.Thread(
                target=_serve_client,
                args=(current.service.url, client_rows[c], logs[c], errors, barrier),
            )
            for c in range(SERVE_CLIENTS)
        ]
        # The clients run concurrently, so no per-op collection here:
        # one collection, then freeze the set-up heap out of later ones.
        gc.collect()
        gc.freeze()
        if ledger is not None:
            ledger.start()
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
        wall_s = time.perf_counter() - started
        gc.unfreeze()
        if ledger is not None:
            ledger.stop()
        if any(thread.is_alive() for thread in threads):
            errors.append("serve: a client did not finish within 170 s")
        metrics = instrumentation.metrics
        batches = metrics.counter("service.batches_total") - batches_before
        coalesced = (
            metrics.counter("service.coalesced_requests_total") - coalesced_before
        )
        work = {name: metrics.counter(name) - before[name] for name in WORK_COUNTERS}
        current.service.shutdown()
        final_bytes = state_to_bytes(current.session.discoverer)
        discoverer = current.session.discoverer
        setup_s = setup_median(setup, size, setup_before, discard)
    finally:
        for entry in served:
            entry.close()
        shutil.rmtree(workdir, ignore_errors=True)

    latencies: Dict[str, List[float]] = {"write": [], "read": []}
    for log in logs:
        for kind, elapsed, _, _ in log:
            latencies[kind].append(elapsed * 1000.0)
    expected_ops = 3 * rounds
    outcome = Outcome(
        setup_s, latencies, wall_s, "write", SERVE_CLIENTS * expected_ops
    )
    outcome.errors.extend(errors)
    outcome.failed = sum(expected_ops - len(log) for log in logs)
    outcome.batch_mean = coalesced / batches if batches else 0.0
    outcome.counts = dict(work)
    outcome.counts["service.cycles"] = batches
    outcome.counts["sigma.size"] = len(discoverer.dc_masks)
    outcome.counts["evidence.size"] = len(discoverer.evidence_set)

    # Every write acknowledged; each client's reads see monotone seqs
    # that include its own last write.
    acked = []
    for c, log in enumerate(logs):
        last_read = last_write = -1
        for kind, _, reply, row in log:
            if kind == "write":
                if reply.get("status") != "committed" or len(reply["rids"]) != 1:
                    outcome.errors.append(f"serve: write not committed: {reply}")
                    outcome.failed += 1
                    continue
                last_write = reply["seq"]
                acked.append((reply["seq"], reply["rids"][0], row))
            else:
                if reply["seq"] < last_read or reply["seq"] < last_write:
                    outcome.errors.append(
                        f"serve: client {c} read seq {reply['seq']} after "
                        f"read {last_read} / write {last_write}"
                    )
                    outcome.failed += 1
                last_read = max(last_read, reply["seq"])

    # The final state equals a serial replay of the acknowledged writes.
    replay = DCDiscoverer(_relation(SERVE_DATASET, initial))
    replay.fit()
    by_seq: Dict[int, list] = {}
    for seq, rid, row in sorted(acked):
        by_seq.setdefault(seq, []).append(row)
    for seq in sorted(by_seq):
        replay.insert([tuple(row) for row in by_seq[seq]])
    if state_to_bytes(replay) != final_bytes:
        outcome.errors.append("serve: final state differs from a serial replay")
        outcome.failed += 1
    return outcome
