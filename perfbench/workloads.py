"""The four workloads: which games each one generates and which CLI jobs it runs.

Every job is one ``edgeshapley.cli.main(argv)`` call with ``--threads 2`` and
``--format json``. Each job carries its reference: the expected exit code and
either the expected allocation (exact rationals or floats with a tolerance)
or the expected pass/fail pattern of the axiom checks.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen

THREADS = 2
SAMPLES = 200000
SAMPLE_SEED = 42

#: Relative tolerance (scaled by the largest reference value) for the float
#: engines, and the accuracy bar a 200000-sample estimate must clear.
APPROX_TOL = 1e-9
SAMPLED_TOL = 0.02

#: Workload names; why each exists is recorded in BENCHMARK.json.
WORKLOADS = ("dense-approx", "dense-exact", "audit", "sampled-large")


@dataclass
class Job:
    id: str
    game: str
    path: str
    argv: list[str]
    kind: str  # compute, whatif, axioms
    method: str
    exit_code: int = 0
    exact: bool = False
    tol: float = 0.0
    expected: list[str] | list[float] | None = None
    modified: list[str] | list[float] | None = None
    checks: list[list] | None = None
    edge: list[str] | None = None


#: Seed of the game structures; ``--seed`` draws only the values (see gen).
SHAPE_SEED = 20250716


def _games(workload: str, seed: int, fixture_text) -> list[gen.Game]:
    w = WORKLOADS.index(workload)
    values = np.random.default_rng([seed, w])

    def shape(k):
        return np.random.default_rng([SHAPE_SEED, w, k])

    if workload == "dense-approx":
        return [
            gen.fixture_game("smartphone", fixture_text("smartphone")),
            gen.supply_chain(shape(1), values, "chain20a", (7, 5, 2, 2, 4), 24, 11),
            gen.supply_chain(shape(2), values, "chain20b", (7, 5, 2, 2, 4), 24, 11),
        ]
    if workload == "dense-exact":
        return [
            gen.contract_chain(shape(0), values, "contract17", (6, 4, 2, 2, 3), 21, 10),
            gen.power_game(shape(1), values, "power17", (6, 4, 2, 2, 3), 21, 2),
            gen.table_game(shape(2), values, "table16", (5, 4, 2, 2, 3), 20, 24),
        ]
    if workload == "audit":
        return [
            gen.supply_chain(shape(0), values, "supply16", (5, 4, 2, 2, 3), 19, 9),
            gen.contract_chain(shape(1), values, "contract12", (4, 3, 2, 1, 2), 13, 7),
            gen.contract_chain(shape(2), values, "contract13", (4, 3, 2, 2, 2), 14, 7),
        ]
    if workload == "sampled-large":
        return [
            gen.supply_chain(shape(0), values, "supply32", (10, 8, 4, 4, 6), 44, 14),
            gen.supply_chain(shape(1), values, "supply40e70", (12, 10, 6, 4, 8), 70, 16),
            gen.supply_chain(shape(2), values, "supply48", (14, 12, 6, 6, 10), 60, 16),
        ]
    raise ValueError(f"unknown workload {workload!r}")


#: Methods run on each game, by workload.
_METHODS = {
    "dense-approx": {
        "smartphone": ["edge_shapley", "edge_shapley_pruned", "closed_form"],
        "chain20a": ["edge_shapley", "edge_shapley_pruned", "closed_form", "whatif"],
        "chain20b": ["edge_shapley", "edge_shapley_pruned", "closed_form"],
    },
    "dense-exact": {
        "contract17": ["edge_shapley", "edge_shapley_pruned", "shapley"],
        "power17": ["edge_shapley", "edge_shapley_pruned", "shapley"],
        "table16": ["edge_shapley"],
    },
    "audit": {
        "supply16": ["axioms", "myerson"],
        "contract12": ["axioms", "myerson"],
        "contract13": ["axioms", "myerson"],
    },
    "sampled-large": {
        "supply32": ["sampled", "closed_form"],
        "supply40e70": ["sampled", "closed_form"],
        "supply48": ["sampled", "closed_form"],
    },
}


def _encode(values, exact: bool):
    return [str(v) for v in values] if exact else [float(v) for v in values]


def _components(game: gen.Game) -> int:
    parent = {x: x for x in game.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in game.edges:
        parent[find(u)] = find(v)
    return len({find(x) for x in game.nodes})


def _reference(game: gen.Game):
    """Reference allocation of a game; exact games are also checked for
    efficiency against the worth of all edges."""
    mtype = game.doc["model"]["type"]
    if mtype in ("supply_cost_decay", "contract"):
        return gen.closed_form(game)
    ref = gen.exact_enumeration(game)
    if sum(ref) != gen.total_worth(game):
        raise ValueError(f"{game.name}: reference is not efficient")
    return ref


def build(workload: str, seed: int, workdir: Path, fixture_text) -> list[Job]:
    """Write the workload's scenarios and references into ``workdir`` and
    return its job list."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 99])
    jobs: list[Job] = []
    for game in _games(workload, seed, fixture_text):
        path = workdir / f"{game.name}.json"
        path.write_text(json.dumps(game.doc, indent=1) + "\n", encoding="utf-8")
        exact = game.doc["domain"] == "exact"
        ref = _encode(_reference(game), exact)
        for method in _METHODS[workload][game.name]:
            common = ["--input", str(path), "--threads", str(THREADS), "--format", "json"]
            job_id = f"{game.name}/{method}"
            if method == "axioms":
                checks = [["efficiency", True], ["symmetry", True], ["null-player", True], ["fairness", True]]
                checks += [["component-efficiency", True]] * _components(game)
                checks += [["component-additivity-hypothesis", True]]
                jobs.append(Job(job_id, game.name, str(path), ["axioms"] + common, "axioms", method,
                                exact=exact, checks=checks))
                continue
            if method == "whatif":
                routed = sorted({
                    j for nodes, _ in game.routes[:-1] for j in gen.induced_edges(game.edges, set(nodes))
                })
                e = routed[int(rng.integers(len(routed)))]
                u, v = game.edges[e][:2]
                modified = _encode(gen.closed_form(game, drop_edge=e), exact)
                argv = ["whatif", "--remove-edge", u, v, "--method", "edge_shapley"] + common
                jobs.append(Job(job_id, game.name, str(path), argv, "whatif", "edge_shapley", exact=exact,
                                tol=APPROX_TOL, expected=ref, modified=modified, edge=[u, v]))
                continue
            argv = ["compute", "--method", method] + common
            tol = APPROX_TOL
            if method == "sampled":
                argv += ["--samples", str(SAMPLES), "--seed", str(SAMPLE_SEED)]
                tol = SAMPLED_TOL
            jobs.append(Job(job_id, game.name, str(path), argv, "compute", method, exact=exact, tol=tol,
                            expected=ref))
    (workdir / "references.json").write_text(
        json.dumps([asdict(j) for j in jobs], indent=1) + "\n", encoding="utf-8"
    )
    return jobs


def check(job: Job, code, out: str) -> tuple[bool, float, str]:
    """Compare one job's exit code and JSON output with its reference.

    Returns (ok, relative error of the approx allocation, reason)."""
    if code != job.exit_code:
        return False, 0.0, f"exit {code}, expected {job.exit_code}"
    try:
        return _check_doc(job, json.loads(out))
    except (ValueError, KeyError, TypeError) as e:
        return False, 0.0, f"malformed output: {type(e).__name__}: {e}"


def _check_doc(job: Job, doc: dict) -> tuple[bool, float, str]:
    if job.kind == "axioms":
        got = [[c["name"], c["passed"]] for c in doc["checks"]]
        return got == job.checks, 0.0, "" if got == job.checks else f"checks {got}"
    if job.kind == "whatif":
        ok, err, why = compare(job.exact, job.tol, doc["baseline"]["allocations"], job.expected)
        ok2, err2, why2 = compare(job.exact, job.tol, doc["modified"]["allocations"], job.modified)
        fair = doc["fairness"]
        ok3 = fair["equal"] is True and fair["edge"] == job.edge
        return ok and ok2 and ok3, max(err, err2), why or why2 or ("" if ok3 else f"fairness {fair}")
    if not all(c["passed"] for c in doc["checks"]):
        return False, 0.0, f"failed check {doc['checks']}"
    return compare(job.exact, job.tol, doc["allocations"], job.expected)


def compare(exact: bool, tol: float, rows, expected) -> tuple[bool, float, str]:
    """Allocation rows of the CLI's JSON against a reference vector: exact
    rationals must be equal, floats within ``tol`` of the largest value."""
    if len(rows) != len(expected):
        return False, 0.0, f"{len(rows)} allocations, expected {len(expected)}"
    if exact:
        if any("exact" not in r for r in rows):
            return False, 0.0, "exact allocation printed without exact values"
        got = [Fraction(r["exact"]) for r in rows]
        want = [Fraction(x) for x in expected]
        bad = [k for k, (a, b) in enumerate(zip(got, want)) if a != b]
        return not bad, 0.0, f"node {rows[bad[0]]['node']}: {got[bad[0]]} vs {want[bad[0]]}" if bad else ""
    scale = max(max(abs(x) for x in expected), 1e-300)
    err = max(abs(r["decimal"] - x) for r, x in zip(rows, expected)) / scale
    return err <= tol, err, "" if err <= tol else f"relative error {err:.3g} > {tol}"
