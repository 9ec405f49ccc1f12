"""Benchmark of the edgeshapley enumeration engines, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-approx --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from ``--seed`` into ``perfbench/_work``
together with a reference output for each job. A fresh worker process then
runs the job list through ``edgeshapley.cli.main`` for ``--seconds``; every
output is checked against its reference. The last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` they are the per-layer ones from a traced replay.

``correct`` is false when a job gave a wrong answer: output that disagrees
with its reference, output that changes between passes, or a failing verdict
(exit 1 or 2). A job that raises or refuses (exit 64/65) counts as failed
without being a wrong answer.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_REPEATS = 11
WORKER_TIMEOUT_S = 170

#: Exit codes by which the CLI gives a verdict rather than refusing the input.
VERDICT_CODES = (0, 1, 2)

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "games.evaluations": "count",
    "games.marginals": "count",
    "games.table_mb_computed": "MiB",
    "edgegame.pruned_kept_ratio": "ratio",
    "games.sample_max_rel_err": "ratio",
}

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import edgeshapley.cli; "
    "from edgeshapley.scenarios import load_scenario; "
    "[load_scenario(p) for p in sys.argv[2:]]"
)


def measure_setup(paths: list[str]) -> float:
    """Median wall time of a fresh interpreter that imports the CLI module and
    loads every input scenario: what each CLI invocation pays up front."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms and the
        # measured time comes out quantized to them.
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *paths],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def cross_check(jobs: list[workloads.Job]) -> dict[str, str]:
    """Compare each route game's reference with the package's closed form:
    exactly for contract games, within the float tolerance for supply games.
    Returns {game: (reason, wrong)} for the games whose check did not pass;
    ``wrong`` is false when the package raised instead of answering."""
    from edgeshapley.models import CostDecayParams, route_closed_form
    from edgeshapley.scenarios import ContractModel, SupplyModel, load_scenario

    bad = {}
    seen = set()
    for job in jobs:
        if job.game in seen or job.expected is None:
            continue
        seen.add(job.game)
        try:
            scenario = load_scenario(job.path)
            model = scenario.model
            if isinstance(model, SupplyModel):
                decay = CostDecayParams(model.alpha)
            elif isinstance(model, ContractModel):
                decay = None
            else:
                continue
            alloc = route_closed_form(scenario.graph, scenario.routes, decay)
        except Exception as e:  # recorded as a failed job, not a crash of the run
            bad[job.game] = (f"route_closed_form raised {type(e).__name__}: {e}", False)
            continue
        rows = [{"node": label, "decimal": float(v), "exact": str(v)}
                for label, v in zip(scenario.graph.nodes, alloc.values)]
        ok, _, why = workloads.compare(job.exact, workloads.APPROX_TOL, rows, job.expected)
        if not ok:
            bad[job.game] = (f"reference disagrees with route_closed_form: {why}", True)
    return bad


def run_worker(jobs, seconds: float, trace: bool, workdir: Path) -> dict:
    spec = {
        "src": str(SRC),
        "jobs": [asdict(j) for j in jobs],
        "seconds": seconds,
        "trace": trace,
        "spans": str(workdir / "spans.json"),
    }
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec) + "\n", encoding="utf-8")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S,
    )
    return json.loads(result_path.read_text("utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    from edgeshapley.scenarios import fixture_text

    jobs = workloads.build(name, seed, workdir, fixture_text)
    bad_refs = cross_check(jobs)
    setup_s = None if trace else measure_setup(sorted({j.path for j in jobs}))
    result = run_worker(jobs, seconds, trace, workdir)

    failed, wrong, rel_errs, sample_errs = [], [], [], []
    for job, res in zip(jobs, result["jobs"]):
        code = res["code"]
        if job.game in bad_refs:
            why, is_wrong = bad_refs[job.game]
            failed.append((job.id, why))
            if is_wrong:
                wrong.append(job.id)
            continue
        if code is None or code not in VERDICT_CODES:
            failed.append((job.id, f"exit {code}: {res['err'].strip()[-200:]}"))
            continue
        ok, err, why = workloads.check(job, code, res["out"])
        if ok and not res["deterministic"]:
            ok, why = False, "output changed between passes"
        if not job.exact and job.kind != "axioms" and code == job.exit_code:
            rel_errs.append(err)
            if job.method == "sampled":
                sample_errs.append(err)
        if not ok:
            failed.append((job.id, why))
            wrong.append(job.id)

    attempted = len(jobs)
    quality = {
        "fail_ratio": (len(failed) / attempted, "ratio"),
        "max_rel_err": (max(rel_errs, default=0.0), "ratio"),
    }
    if trace:
        layers = dict(result["layers"])
        layers["games.sample_max_rel_err"] = max(sample_errs, default=0.0)
        metrics = {k: {"value": v, "unit": LAYER_UNITS.get(k, "s")} for k, v in sorted(layers.items())}
    else:
        # Each job's median over the passes, summed over the job list: a burst
        # of load from outside hits one job of one pass, not the estimate.
        per_job = list(zip(*result["passes"]))
        values = {
            "wall_s": sum(statistics.median(t[0] for t in runs) for runs in per_job),
            "cpu_s": sum(statistics.median(t[1] for t in runs) for runs in per_job),
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    print(f"workload {name} seed {seed} trace {int(trace)}: {attempted} jobs, "
          f"{len(result['passes'])} pass(es), correct={not wrong}")
    for job_id, why in failed:
        print(f"  FAILED {job_id}: {why}")
    for key, entry in metrics.items():
        print(f"  {key:32s} {entry['value']:.6g} {entry['unit']}")
    for key, (value, unit) in quality.items():
        print(f"  {key:32s} {value:.6g} {unit}")
    for key, value in result.get("trace_notes", {}).items():
        if value:
            print(f"  trace note {key}: {value}")
    return {"correct": not wrong, "attempted": attempted, "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "edgeshapley" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC / 'edgeshapley'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads.WORKLOADS}
        print(json.dumps(results))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
