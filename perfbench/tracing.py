"""Traced replay of a job list: spans around the package's public calls.

Each job is first run whole through ``cli.main`` (span ``cli.main``). Then the
library calls that command makes are replayed one by one, each in its own
span: these "mirror" spans are what ``cli.main`` spent outside its own code,
so ``cli.self_s`` is the ``cli.main`` span minus the job's mirror spans. Extra
spans split the work further: the dense table of every ``edge_shapley`` call
into induced-edge masks, worth evaluation and the reduction; the single-thread
run; the per-coalition component search behind Myerson; one sampler-shaped
block of prefix masks. Spans are kept in memory and written out at the end.

Counts come from ``EngineStats`` handed to the mirrored ``edge_shapley`` and
``edge_shapley_pruned`` calls. ``games.table_mb_computed`` is the largest
dense table of the job list, computed as 2^n times the bytes per entry
(24 for the float path's three int64/float64 arrays, 8 for the exact path's
list slot), not measured.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from edgeshapley import cli
from edgeshapley.edgegame import (
    component_efficiency_check,
    edge_shapley,
    edge_shapley_pruned,
    fairness_delta,
    lift,
)
from edgeshapley.games import (
    EngineStats,
    GraphGame,
    NodeCharacteristic,
    axiom_check,
    myerson,
    shapley_exact,
    shapley_sampled,
)
from edgeshapley.masks import all_masks
from edgeshapley.models import CostDecayParams, route_closed_form
from edgeshapley.scenarios import SupplyModel, load_scenario
from workloads import SAMPLE_SEED, SAMPLES, THREADS

#: Rows per sampler block, as in ``edgeshapley.games.shapley_sampled``.
SAMPLE_BLOCK = 4096

#: Spans that repeat what cli.main itself calls.
MIRROR = {
    "scenarios.load",
    "models.build",
    "edgegame.edge_shapley",
    "edgegame.pruned",
    "games.shapley",
    "games.myerson",
    "games.sample",
    "models.closed_form",
    "edgegame.fairness",
    "games.axioms",
    "edgegame.component_check",
}

#: Every span that becomes a per-layer time, reported as ``<name>_s``.
TIMED = sorted(MIRROR | {
    "edgegame.edge_shapley_t1",
    "graph.induced",
    "models.worth",
    "games.reduce",
    "graph.components",
    "graph.induced_scattered",
    "models.worth_scattered",
})


class Tracer:
    """Spans as [name, start, end, parent index, job id], in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, job])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()


def _decompose(tr: Tracer, jid: str, eg, reference) -> dict:
    """Rebuild the dense table of ``eg`` layer by layer and reduce it."""
    g, w = eg.graph, eg.characteristic
    n = g.n
    if w.has_vector_path:
        with tr.span("graph.induced", jid):
            edge_masks = g.induced_edge_masks(all_masks(n))
        with tr.span("models.worth", jid):
            vals = w.evaluate_many(edge_masks)
        table = NodeCharacteristic(n, lambda m: float(vals[m]), exact=False,
                                   fn_many=lambda ms: vals[ms])
        entry_bytes = 24  # coalition mask, edge mask, worth
    else:
        with tr.span("graph.induced", jid):
            edge_masks = [g.induced_edge_mask(m) for m in range(1 << n)]
        with tr.span("models.worth", jid):
            vals = [w(m) for m in edge_masks]
        table = NodeCharacteristic(n, vals.__getitem__, exact=True)
        entry_bytes = 8  # one list slot per coalition
    with tr.span("games.reduce", jid):
        alloc = shapley_exact(table)
    return {
        "table_mb_computed": (entry_bytes << n) / 2**20,
        "reduce_identical": alloc.values == reference.values,
    }


def _edge_shapley(tr: Tracer, jid: str, eg, counts: dict):
    stats = EngineStats()
    with tr.span("edgegame.edge_shapley", jid):
        alloc = edge_shapley(eg, threads=THREADS, stats=stats)
    with tr.span("edgegame.edge_shapley_t1", jid):
        edge_shapley(eg, threads=1)
    counts["evaluations"] += stats.evaluations
    counts["marginals"] += stats.marginals
    info = _decompose(tr, jid, eg, alloc)
    counts["table_mb_computed"] = max(counts["table_mb_computed"], info["table_mb_computed"])
    if not info["reduce_identical"]:
        counts["reduce_mismatch"].append(jid)
    return alloc


def _replay(tr: Tracer, job: dict, counts: dict):
    jid = job["id"]
    with tr.span("scenarios.load", jid):
        scenario = load_scenario(job["path"])
    with tr.span("models.build", jid):
        eg = scenario.edge_game()
    g = eg.graph
    method = job["method"]
    if job["kind"] == "axioms":
        alloc = _edge_shapley(tr, jid, eg, counts)
        with tr.span("games.axioms", jid):
            axiom_check(lift(eg), alloc, "all")
        with tr.span("edgegame.fairness", jid):
            for edge in g.edges:
                fairness_delta(eg, edge, threads=THREADS)
        with tr.span("edgegame.component_check", jid):
            component_efficiency_check(eg, threads=THREADS)
    elif job["kind"] == "whatif":
        with tr.span("edgegame.fairness", jid):
            fairness_delta(eg, tuple(job["edge"]), threads=THREADS)
    elif method == "edge_shapley":
        _edge_shapley(tr, jid, eg, counts)
    elif method == "edge_shapley_pruned":
        stats = EngineStats()
        with tr.span("edgegame.pruned", jid):
            edge_shapley_pruned(eg, threads=THREADS, stats=stats)
        counts["evaluations"] += stats.evaluations
        counts["marginals"] += stats.marginals
        counts["pruned_marginals"] += stats.marginals
        counts["pruned_base"] += g.n << (g.n - 1)
    elif method == "shapley":
        with tr.span("games.shapley", jid):
            shapley_exact(lift(eg), threads=THREADS)
    elif method == "myerson":
        with tr.span("games.myerson", jid):
            myerson(GraphGame(g, lift(eg)), threads=THREADS)
        with tr.span("graph.components", jid):
            for m in range(1 << g.n):
                g.component_masks(within=m)
    elif method == "sampled":
        with tr.span("games.sample", jid):
            shapley_sampled(lift(eg), SAMPLES, SAMPLE_SEED)
        rng = np.random.default_rng(SAMPLE_SEED)
        perms = rng.permuted(np.tile(np.arange(g.n), (SAMPLE_BLOCK, 1)), axis=1)
        prefixes = np.bitwise_or.accumulate(np.int64(1) << perms.astype(np.int64), axis=1)
        with tr.span("graph.induced_scattered", jid):
            edge_masks = g.induced_edge_masks(prefixes.ravel())
        with tr.span("models.worth_scattered", jid):
            eg.characteristic.evaluate_many(edge_masks)
    elif method == "closed_form":
        model = scenario.model
        decay = CostDecayParams(model.alpha) if isinstance(model, SupplyModel) else None
        with tr.span("models.closed_form", jid):
            route_closed_form(g, scenario.routes, decay)
    else:
        raise ValueError(f"no replay for method {method!r}")


def traced_pass(jobs: list[dict], run_job) -> tuple[dict, float, list, dict]:
    """Run every job through cli.main and replay it with spans.

    Returns (per-layer sums, wall time of the pass, spans, replay notes)."""
    tr = Tracer()
    counts = {"evaluations": 0, "marginals": 0, "pruned_marginals": 0, "pruned_base": 0,
              "table_mb_computed": 0.0, "reduce_mismatch": []}
    errors = {}
    started = time.perf_counter()
    for job in jobs:
        jid = job["id"]
        with tr.span("job", jid):
            with tr.span("cli.main", jid):
                run_job(cli.main, job["argv"])
            try:
                _replay(tr, job, counts)
            except Exception as e:  # a job that crashes stops its replay only
                errors[jid] = f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - started

    totals = dict.fromkeys(TIMED, 0.0)
    cli_self = 0.0
    for name, start, end, _, _ in tr.spans:
        if name in totals:
            totals[name] += end - start
        if name == "cli.main":
            cli_self += end - start
        elif name in MIRROR:
            cli_self -= end - start
    layers = {f"{name}_s": value for name, value in totals.items()}
    layers["cli.self_s"] = cli_self
    layers["edgegame.unaccounted_s"] = totals["edgegame.edge_shapley"] - (
        totals["graph.induced"] + totals["models.worth"] + totals["games.reduce"]
    )
    layers["games.evaluations"] = counts["evaluations"]
    layers["games.marginals"] = counts["marginals"]
    layers["games.table_mb_computed"] = counts["table_mb_computed"]
    layers["edgegame.pruned_kept_ratio"] = (
        counts["pruned_marginals"] / counts["pruned_base"] if counts["pruned_base"] else 0.0
    )
    notes = {"replay_errors": errors, "reduce_mismatch": counts["reduce_mismatch"]}
    return layers, wall, tr.spans, notes
