"""Benchmark worker: runs one workload's job list in a fresh interpreter.

Usage: python3 worker.py SPEC.json RESULT.json

The spec names the package source directory, the jobs, the number of
seconds to measure and whether to trace. Jobs run one at a time (a closed
loop with one client) through ``edgeshapley.cli.main``; the whole list is
repeated until the time is used up, and every job records its wall time and
the process's user+sys CPU time in every pass. Peak RSS is read once, after
the passes.
With tracing on, one untraced pass is followed by one traced pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def run_job(main, argv):
    """One CLI call: (exit code or None if it raised, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:
        code = e.code
    except Exception as e:  # a crashing job is a failed job; the run goes on
        return None, out.getvalue(), f"{type(e).__name__}: {e}"
    return code, out.getvalue(), err.getvalue()[-2000:]


def _cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text("utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    from edgeshapley import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"edgeshapley imported from {cli.__file__}, not from {src}")
    jobs = spec["jobs"]

    passes, outputs, unstable = [], None, set()
    started = time.perf_counter()
    while True:
        timings, results = [], []
        for job in jobs:
            c0, t0 = _cpu(), time.perf_counter()
            results.append(run_job(cli.main, job["argv"]))
            timings.append((time.perf_counter() - t0, _cpu() - c0))
        passes.append(timings)
        if outputs is None:
            outputs = results
        else:
            unstable |= {k for k, (a, b) in enumerate(zip(outputs, results)) if a[:2] != b[:2]}
        if spec["trace"] or time.perf_counter() - started >= spec["seconds"]:
            break
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": [
            {"code": code, "out": out, "err": err, "deterministic": k not in unstable}
            for k, (code, out, err) in enumerate(outputs)
        ],
    }
    if spec["trace"]:
        import tracing

        layers, traced_wall, spans, notes = tracing.traced_pass(jobs, run_job)
        layers["trace.overhead_s"] = traced_wall - sum(wall for wall, _ in passes[0])
        result["layers"] = layers
        result["trace_notes"] = notes
        Path(spec["spans"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "job"], "spans": spans}) + "\n",
            encoding="utf-8",
        )
    Path(result_path).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
