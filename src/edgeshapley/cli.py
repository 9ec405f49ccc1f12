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
  model, such as closed_form on a model other than a containment supply or
  contract one, game too large for exact enumeration or for physical
  memory, ``whatif --remove-node`` of a scenario's only node);
* 65 -- the input failed to load (a non-finite number, or a number beyond
  the float range in a field read as a float, among the reasons), a supply
  game's route values, a strict-equality supply game's worth or a sampled
  estimate's marginal sums leave the float range, the output could not be
  written, or a what-if target does not exist.

Every value is rendered by two helpers: :func:`_json_value` (the exact
string, a finite float, or null when no float holds the value) and
:func:`_text_value` (the exact string, 6 significant digits, or ``-``), so an
exact value beyond the float range prints its exact string, written at any
size (see :func:`games.value_str`), and a JSON report never holds ``NaN`` or
``Infinity``. Output is byte-deterministic for a given (input file, flags,
seed); wall-time measurement is therefore opt-in via ``--timing``.
"""

from __future__ import annotations

import argparse
import json
import math
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
    shapley_dividends,
    shapley_exact,
    shapley_sampled,
    value_str,
    values_close,
)
from .models import CONTAINMENT
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


def _json_value(x: Value | None, exact: bool = False):
    """A value's JSON form: its exact string, else a float, or None when a
    float cannot hold it (no value, a value beyond the float range, or one
    that is not finite)."""
    if x is None:
        return None
    if exact:
        return value_str(x)
    try:
        x = float(x)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _text_value(x: Value | None, exact: bool = False) -> str:
    """A value's text form: its exact string (a float's shortest repr), else
    6 significant digits, or ``-`` when a float cannot hold it."""
    value = _json_value(x, exact)
    if value is None:
        return "-"
    return value if exact else f"{value:.6g}"


#: ``axioms`` checks reported as information, not failures: component
#: efficiency needs an additivity hypothesis many interesting games break.
INFORMATIONAL_CHECKS = ("component-efficiency", "component-additivity-hypothesis")


def _check_doc(c: CheckResult) -> dict:
    return {"name": c.name, "passed": c.passed, "detail": c.detail}


def _check_line(c: CheckResult) -> str:
    flag = "pass" if c.passed else ("info" if c.name in INFORMATIONAL_CHECKS else "FAIL")
    return f"[{flag}] {c.name}: {c.detail}"


def _allocate(
    scenario: Scenario,
    eg: EdgeGame,
    method: str,
    *,
    samples: int,
    seed: int,
    limit: int | None,
) -> Allocation:
    """The allocation ``method`` gives ``eg``, a game of ``scenario``'s
    model; closed_form reads the dividend rows of ``lift(eg)``, which
    :func:`delete_edge` carries over."""
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
        return shapley_dividends(lift(eg)).with_labels(eg.graph.nodes)
    raise UsageError(f"unknown method {method!r}")


@dataclass
class RunReport:
    scenario: str
    method: str
    allocation: Allocation
    total: Value
    checks: list[CheckResult]
    elapsed_ms: float | None = None

    def to_doc(self) -> dict:
        exact = self.allocation.exact
        rows = []
        for label, value in self.allocation.as_dict().items():
            row: dict = {"node": label}
            if exact:
                row["exact"] = _json_value(value, exact=True)
            row["decimal"] = _json_value(value)
            rows.append(row)
        doc = {
            "scenario": self.scenario,
            "method": self.method,
            "allocations": rows,
            "total": _json_value(self.total),
            "checks": [_check_doc(c) for c in self.checks],
        }
        if self.elapsed_ms is not None:
            doc["elapsed_ms"] = self.elapsed_ms
        return doc

    def to_csv(self) -> str:
        lines = ["node,value"]
        for label, value in self.allocation.as_dict().items():
            lines.append(f"{label},{_text_value(value, exact=True)}")
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        exact = self.allocation.exact
        rows = [["node", "exact", "value"] if exact else ["node", "value"]]
        for label, value in self.allocation.as_dict().items():
            exact_cell = [_text_value(value, exact=True)] if exact else []
            rows.append([label, *exact_cell, _text_value(value)])
        # every column but the last is padded to its widest cell
        widths = [max(len(row[k]) for row in rows) for k in range(len(rows[0]) - 1)]
        lines = [f"scenario: {self.scenario}", f"method: {self.method}", ""]
        for row in rows:
            padded = [cell.ljust(width) for cell, width in zip(row, widths)]
            lines.append("  ".join([*padded, row[-1]]))
        lines += ["", f"total: {_text_value(self.total, exact)}"]
        lines += map(_check_line, self.checks)
        if self.elapsed_ms is not None:
            lines.append(f"elapsed_ms: {self.elapsed_ms:.1f}")
        return "\n".join(lines) + "\n"


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, output: str | None):
    # a NaN or Infinity that bypassed _json_value raises here instead of
    # printing a token strict JSON parsers refuse
    _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", output)


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
    total, got = eg.total_worth, alloc.total()
    checks = [
        CheckResult(
            "efficiency",
            values_close(got, total, alloc.exact, 1e-9),
            f"sum {_text_value(got, exact=True)} vs total worth {_text_value(total, exact=True)}",
        )
    ]
    return RunReport(
        scenario=scenario.name or "<unnamed>",
        method=method,
        allocation=alloc,
        total=total,
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
                computed, want = report.allocation[label], expected[label]
                detail = (
                    f"mismatch at {label}: computed {_text_value(computed, exact=True)} "
                    f"vs expected {_text_value(want, exact=True)}"
                )
            report.checks.append(CheckResult("expected", ok, detail))
            if not ok:
                status = 2
    if args.format == "json":
        _emit_json(report.to_doc(), args.output)
    else:
        _emit(report.to_csv() if args.format == "csv" else report.to_table(), args.output)
    return status


def cmd_whatif(args) -> int:
    scenario = load_scenario(args.input)
    if args.remove_node is not None and scenario.graph.nodes == (args.remove_node,):
        raise UsageError(f"removing {args.remove_node} leaves no players")
    eg = scenario.edge_game()
    base = _build_report(scenario, eg, args.method, args)
    edge = None
    if args.remove_node is not None:
        modified = remove_node(scenario, args.remove_node)
        mod = _build_report(modified, modified.edge_game(), args.method, args)
    else:
        u, v = args.remove_edge
        edge = eg.graph.edges[eg.graph.edge_index(u, v)]  # raises UnknownEdgeError -> 65
        mod = _build_report(scenario, delete_edge(eg, (u, v)), args.method, args)
        mod.scenario, mod.checks = f"{base.scenario} minus edge {u}-{v}", []
    exact = base.allocation.exact

    rows = []  # (node, before, after, delta); after is None for the removed node
    for label in scenario.graph.nodes:
        before = base.allocation[label]
        after = None if label == args.remove_node else mod.allocation[label]
        rows.append((label, before, after, -before if after is None else after - before))
    equal = None  # the endpoint verdict; sampled estimates get none
    if edge is not None:
        d_src = base.allocation[edge.src] - mod.allocation[edge.src]
        d_dst = base.allocation[edge.dst] - mod.allocation[edge.dst]
        # two Monte-Carlo estimates differ by their sampling error, so their
        # gap is reported without a verdict
        if args.method != "sampled":
            equal = values_close(d_src, d_dst, exact, 1e-9)

    if args.format == "json":
        doc = {"baseline": base.to_doc(), "modified": mod.to_doc(), "deltas": []}
        for label, before, after, delta in rows:
            row = {"node": label, "before": _json_value(before, exact),
                   "after": _json_value(after, exact), "delta": _json_value(delta, exact)}
            if after is None:
                row["removed"] = True
            doc["deltas"].append(row)
        if edge is not None:
            fairness = {"edge": [edge.src, edge.dst],
                        "delta": [_json_value(d_src, exact), _json_value(d_dst, exact)]}
            if equal is None:
                fairness["gap"] = _json_value(d_src - d_dst, exact)
            else:
                fairness["equal"] = equal
            doc["fairness"] = fairness
        _emit_json(doc, args.output)
    else:
        lines = ["# baseline", base.to_table(), "# modified", mod.to_table()]
        width = max(4, max(len(row[0]) for row in rows))
        table = [f"{'node':<{width}}  before        after         delta"]
        for label, *values in rows:
            before, after, delta = (_text_value(x, exact) for x in values)
            table.append(f"{label:<{width}}  {before:<12}  {after:<12}  {delta}")
        lines.append("# deltas\n" + "\n".join(table) + "\n")
        if edge is not None:
            if equal is None:
                verdict = f"(sampled estimates, gap {_text_value(d_src - d_dst, exact)}, no verdict)"
            else:
                verdict = "-> equal" if equal else "-> UNEQUAL"
            lines.append(
                f"# fairness\nendpoint deltas {edge.src}: {_text_value(d_src, exact)}, "
                f"{edge.dst}: {_text_value(d_dst, exact)} {verdict}\n"
            )
        _emit("\n".join(lines), args.output)
    return 1 if equal is False else 0


def cmd_axioms(args) -> int:
    scenario = load_scenario(args.input)
    checks = audit(scenario.edge_game(), limit=args.limit).checks
    name = scenario.name or "<unnamed>"
    if args.format == "json":
        _emit_json({"scenario": name, "checks": [_check_doc(c) for c in checks]}, args.output)
    else:
        _emit("\n".join([f"scenario: {name}", *map(_check_line, checks)]) + "\n", args.output)
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
