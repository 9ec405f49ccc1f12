"""Command-line front end: compute allocations, what-if removals, axiom checks.

Exit codes follow a scriptable convention:

* 0 -- success;
* 1 -- a check failed: ``whatif --remove-edge`` with a deterministic method
  found unequal endpoint deltas (``--method sampled`` reports their gap
  without a verdict), or a hard ``axioms`` check (efficiency, symmetry,
  null-player, fairness) did not pass;
* 2 -- an expected vector was present and the computed allocation mismatched
  (regression mode);
* 64 -- usage error (bad flags, method incompatible with the scenario's
  model, game too large for exact enumeration or for physical memory, approx
  game on a graph with more than 63 edges whose worth declares no dividends,
  such as a strict-equality supply game, ``whatif --remove-node`` of a
  scenario's only node);
* 65 -- the input failed to load, the output could not be written, or a
  what-if target does not exist.

Output is byte-deterministic for a given (input file, flags, seed); wall-time
measurement is therefore opt-in via ``--timing``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from .edgegame import (
    EdgeGame,
    audit,
    delete_edge,
    edge_shapley,
    edge_shapley_pruned,
    lift,
)
from .errors import CapacityError, GameError
from .games import (
    DEFAULT_ENUMERATION_LIMIT,
    MAX_ENUMERATION_PLAYERS,
    Allocation,
    CheckResult,
    GraphGame,
    Value,
    myerson,
    shapley_exact,
    shapley_sampled,
    values_close,
)
from .models import CONTAINMENT, route_closed_form
from .scenarios import (
    EXACT,
    ContractModel,
    Scenario,
    SupplyModel,
    UNVERIFIED,
    load_scenario,
    remove_node,
)

METHODS = (
    "edge_shapley",
    "edge_shapley_pruned",
    "myerson",
    "shapley",
    "closed_form",
    "sampled",
)

#: Regression tolerance for approx-domain expected vectors (3-decimal data).
EXPECTED_ABS_TOL = 2e-3

DEFAULT_SAMPLES = 200000
DEFAULT_SEED = 42


class UsageError(Exception):
    """Flag combination the scenario cannot satisfy."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _fmt6(x: float) -> str:
    return f"{float(x):.6g}"


def _allocate(
    scenario: Scenario,
    eg: EdgeGame,
    method: str,
    *,
    samples: int,
    seed: int,
    limit: int | None,
) -> Allocation:
    """The allocation ``method`` gives ``eg``; closed_form reads the
    scenario's routes, so :func:`cmd_whatif` refuses it on a deleted edge."""
    if method == "edge_shapley":
        return edge_shapley(eg, limit=limit)
    if method == "edge_shapley_pruned":
        return edge_shapley_pruned(eg, limit=limit)
    if method == "myerson":
        return myerson(GraphGame(eg.graph, lift(eg)), limit=limit)
    if method == "shapley":
        return shapley_exact(lift(eg), limit=limit).with_labels(eg.graph.nodes)
    if method == "sampled":
        return shapley_sampled(lift(eg), samples, seed).with_labels(eg.graph.nodes)
    if method == "closed_form":
        model = scenario.model
        if not isinstance(model, (SupplyModel, ContractModel)):
            raise UsageError("closed_form requires a supply or contract route model")
        if model.semantics != CONTAINMENT:
            raise UsageError("closed_form requires containment semantics")
        decay = model if isinstance(model, SupplyModel) else None
        return route_closed_form(scenario.graph, scenario.routes, decay)
    raise UsageError(f"unknown method {method!r}")


@dataclass
class RunReport:
    scenario: str
    method: str
    allocation: Allocation
    total: Value
    checks: list[CheckResult]
    elapsed_ms: float | None = None

    def allocation_rows(self) -> list[dict]:
        rows = []
        for label in self.allocation.nodes:
            value = self.allocation[label]
            row: dict = {"node": label}
            if self.allocation.exact:
                row["exact"] = str(value)
            row["decimal"] = float(value)
            rows.append(row)
        return rows

    def to_doc(self) -> dict:
        doc = {
            "scenario": self.scenario,
            "method": self.method,
            "allocations": self.allocation_rows(),
            "total": float(self.total),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
        if self.elapsed_ms is not None:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc

    def to_csv(self) -> str:
        lines = ["node,value"]
        for row in self.allocation_rows():
            value = row["exact"] if "exact" in row else repr(row["decimal"])
            lines.append(f"{row['node']},{value}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        lines = [f"scenario: {self.scenario}", f"method: {self.method}", ""]
        width = max(4, max(len(n) for n in self.allocation.nodes))
        if self.allocation.exact:
            ew = max(5, max(len(str(v)) for v in self.allocation.values))
            lines.append(f"{'node':<{width}}  {'exact':<{ew}}  value")
            for label in self.allocation.nodes:
                v = self.allocation[label]
                lines.append(f"{label:<{width}}  {str(v):<{ew}}  {_fmt6(v)}")
        else:
            lines.append(f"{'node':<{width}}  value")
            for label in self.allocation.nodes:
                lines.append(f"{label:<{width}}  {_fmt6(self.allocation[label])}")
        lines.append("")
        total = str(self.total) if self.allocation.exact else _fmt6(self.total)
        lines.append(f"total: {total}")
        for c in self.checks:
            lines.append(f"[{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        if self.elapsed_ms is not None:
            lines.append(f"elapsed_ms: {self.elapsed_ms:.1f}")
        return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render(doc_or_report, fmt: str, output: str | None):
    if fmt == "json":
        if isinstance(doc_or_report, RunReport):
            doc_or_report = doc_or_report.to_doc()
        _emit(json.dumps(doc_or_report, indent=2) + "\n", output)
    elif fmt == "csv":
        _emit(doc_or_report.to_csv(), output)
    else:
        _emit(doc_or_report.to_table(), output)


def _build_report(scenario, eg, method, args) -> RunReport:
    started = time.perf_counter()
    alloc = _allocate(
        scenario,
        eg,
        method,
        samples=args.samples,
        seed=args.seed,
        limit=args.limit,
    )
    elapsed = (time.perf_counter() - started) * 1000.0
    total_worth = eg.total_worth
    checks = [
        CheckResult(
            "efficiency",
            values_close(alloc.total(), total_worth, alloc.exact, 1e-9),
            f"sum {alloc.total()} vs total worth {total_worth}",
        )
    ]
    return RunReport(
        scenario=scenario.name or "<unnamed>",
        method=method,
        allocation=alloc,
        total=total_worth,
        checks=checks,
        elapsed_ms=elapsed if args.timing else None,
    )


def cmd_compute(args) -> int:
    scenario = load_scenario(args.input)
    report = _build_report(scenario, scenario.edge_game(), args.method, args)
    status = 0
    if args.check_expected:
        expected = scenario.expected_allocation()
        if expected is None:
            report.checks.append(
                CheckResult("expected", True, "no expected vector in scenario")
            )
        elif scenario.expected_status == UNVERIFIED:
            report.checks.append(
                CheckResult("expected", True, "expected vector unverified; regression skipped")
            )
        else:
            if scenario.domain == EXACT:
                mismatches = [
                    label
                    for label in scenario.graph.nodes
                    if report.allocation[label] != expected[label]
                ]
            else:
                mismatches = [
                    label
                    for label in scenario.graph.nodes
                    if abs(report.allocation[label] - expected[label]) > EXPECTED_ABS_TOL
                ]
            ok = not mismatches
            detail = "allocation matches expected vector"
            if mismatches:
                label = mismatches[0]
                detail = (
                    f"mismatch at {label}: computed {report.allocation[label]} "
                    f"vs expected {expected[label]}"
                )
            report.checks.append(CheckResult("expected", ok, detail))
            if not ok:
                status = 2
    _render(report, args.format, args.output)
    return status


def _whatif_doc(args, scenario: Scenario):
    eg = scenario.edge_game()
    base_report = _build_report(scenario, eg, args.method, args)
    fairness = None
    if args.remove_node is not None:
        modified = remove_node(scenario, args.remove_node)
        mod_report = _build_report(modified, modified.edge_game(), args.method, args)
        removed = {args.remove_node}
    else:
        u, v = args.remove_edge
        j = eg.graph.edge_index(u, v)  # raises UnknownEdgeError -> 65
        edge = eg.graph.edges[j]
        deleted = delete_edge(eg, (u, v))
        started = time.perf_counter()
        alloc = _allocate(
            scenario,
            deleted,
            args.method,
            samples=args.samples,
            seed=args.seed,
            limit=args.limit,
        )
        elapsed = (time.perf_counter() - started) * 1000.0
        mod_report = RunReport(
            scenario=f"{base_report.scenario} minus edge {u}-{v}",
            method=args.method,
            allocation=alloc,
            total=deleted.total_worth,
            checks=[],
            elapsed_ms=elapsed if args.timing else None,
        )
        removed = set()
        d_src = base_report.allocation[edge.src] - alloc[edge.src]
        d_dst = base_report.allocation[edge.dst] - alloc[edge.dst]
        fairness = {"edge": [edge.src, edge.dst], "delta": [d_src, d_dst]}
        if args.method == "sampled":
            # two Monte-Carlo estimates differ by their sampling error, so
            # their gap is reported without a verdict
            fairness["gap"] = d_src - d_dst
        else:
            fairness["equal"] = values_close(d_src, d_dst, base_report.allocation.exact, 1e-9)

    deltas = []
    for label in scenario.graph.nodes:
        before = base_report.allocation[label]
        if label in removed:
            deltas.append({"node": label, "before": before, "after": None,
                           "delta": -before, "removed": True})
        else:
            after = mod_report.allocation[label]
            deltas.append({"node": label, "before": before, "after": after,
                           "delta": after - before})
    return base_report, mod_report, deltas, fairness


def cmd_whatif(args) -> int:
    scenario = load_scenario(args.input)
    if args.method == "closed_form" and args.remove_edge is not None:
        raise UsageError("closed_form cannot run on an edge-deleted game")
    if args.remove_node is not None and scenario.graph.nodes == (args.remove_node,):
        raise UsageError(f"removing {args.remove_node} leaves no players")
    base_report, mod_report, deltas, fairness = _whatif_doc(args, scenario)
    exact = base_report.allocation.exact

    def num(x):
        if x is None:
            return None
        return str(x) if exact else float(x)

    if args.format == "json":
        doc = {
            "baseline": base_report.to_doc(),
            "modified": mod_report.to_doc(),
            "deltas": [
                {k: (num(v) if k in ("before", "after", "delta") else v) for k, v in row.items()}
                for row in deltas
            ],
        }
        if fairness is not None:
            doc["fairness"] = {
                "edge": fairness["edge"],
                "delta": [num(d) for d in fairness["delta"]],
            }
            if "equal" in fairness:
                doc["fairness"]["equal"] = fairness["equal"]
            else:
                doc["fairness"]["gap"] = num(fairness["gap"])
        _render(doc, "json", args.output)
    else:
        lines = ["# baseline", base_report.to_table(), "# modified", mod_report.to_table()]
        width = max(4, max(len(r["node"]) for r in deltas))
        rows = [f"{'node':<{width}}  before        after         delta"]
        for r in deltas:
            before = str(r["before"]) if exact else _fmt6(r["before"])
            after = "-" if r["after"] is None else (str(r["after"]) if exact else _fmt6(r["after"]))
            delta = str(r["delta"]) if exact else _fmt6(r["delta"])
            rows.append(f"{r['node']:<{width}}  {before:<12}  {after:<12}  {delta}")
        lines.append("# deltas\n" + "\n".join(rows) + "\n")
        if fairness is not None:
            u, v = fairness["edge"]
            d_src, d_dst = fairness["delta"]
            ds = str(d_src) if exact else _fmt6(d_src)
            dd = str(d_dst) if exact else _fmt6(d_dst)
            if "equal" in fairness:
                verdict = "-> equal" if fairness["equal"] else "-> UNEQUAL"
            else:
                gap = str(fairness["gap"]) if exact else _fmt6(fairness["gap"])
                verdict = f"(sampled estimates, gap {gap}, no verdict)"
            lines.append(f"# fairness\nendpoint deltas {u}: {ds}, {v}: {dd} {verdict}\n")
        _emit("\n".join(lines), args.output)

    if fairness is not None and not fairness.get("equal", True):
        return 1
    return 0


#: ``axioms`` checks reported as information, not failures: component
#: efficiency needs an additivity hypothesis many interesting games break.
INFORMATIONAL_CHECKS = ("component-efficiency", "component-additivity-hypothesis")


def cmd_axioms(args) -> int:
    scenario = load_scenario(args.input)
    checks = audit(scenario.edge_game(), limit=args.limit).checks
    doc = {
        "scenario": scenario.name or "<unnamed>",
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
    }
    if args.format == "json":
        _render(doc, "json", args.output)
    else:
        lines = [f"scenario: {doc['scenario']}"]
        for c in checks:
            flag = "pass" if c.passed else ("info" if c.name in INFORMATIONAL_CHECKS else "FAIL")
            lines.append(f"[{flag}] {c.name}: {c.detail}")
        _emit("\n".join(lines) + "\n", args.output)
    hard = [c for c in checks if c.name not in INFORMATIONAL_CHECKS]
    return 0 if all(c.passed for c in hard) else 1


def _add_common(p: argparse.ArgumentParser, *, formats=("table", "json", "csv")):
    p.add_argument("--input", required=True, help="scenario file (JSON)")
    p.add_argument("--format", choices=formats, default="table")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    p.add_argument("--limit", type=int, default=DEFAULT_ENUMERATION_LIMIT,
                   help="largest player count the enumerating methods and the axiom "
                        f"checks accept (default {DEFAULT_ENUMERATION_LIMIT}, at most "
                        f"{MAX_ENUMERATION_PLAYERS}, and never more than physical memory "
                        "holds); closed_form and sampled ignore it")
    p.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES,
                   help="permutation samples for --method sampled")
    p.add_argument("--seed", type=_non_negative_int, default=DEFAULT_SEED,
                   help="RNG seed for --method sampled")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing in the report (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="edgeshapley",
                     description="Allocation values for cooperative games on graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[], help="compute an allocation for a scenario")
    _add_common(p)
    p.add_argument("--method", choices=METHODS, default="edge_shapley")
    p.add_argument("--check-expected", action="store_true",
                   help="compare against the scenario's expected vector (exit 2 on mismatch)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("whatif", help="compare allocations before/after removing a node or edge")
    _add_common(p, formats=("table", "json"))
    p.add_argument("--method", choices=METHODS, default="edge_shapley")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--remove-node", metavar="U")
    target.add_argument("--remove-edge", nargs=2, metavar=("A", "B"))
    p.set_defaults(func=cmd_whatif)

    p = sub.add_parser("axioms", help="run the axiom checks on a scenario")
    _add_common(p, formats=("table", "json"))
    p.set_defaults(func=cmd_axioms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, CapacityError) as e:
        print(f"edgeshapley: error: {e}", file=sys.stderr)
        return 64
    except (GameError, OSError) as e:
        print(f"edgeshapley: error: {e}", file=sys.stderr)
        return 65


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
