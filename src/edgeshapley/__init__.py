"""Allocation values for cooperative games on graphs.

Exact and Monte-Carlo Shapley values, the Myerson value, and the edge-based
allocation for games whose characteristic function lives on edge subsets,
plus value models for supply-route and contract networks, scenario file I/O,
and a small CLI (``edgeshapley``).
"""

from .edgegame import (
    ComponentEfficiencyReport,
    EdgeCharacteristic,
    EdgeGame,
    audit,
    component_efficiency_check,
    delete_edge,
    edge_shapley,
    edge_shapley_pruned,
    fairness_delta,
    lift,
    myerson_bridge,
    neighborhood_restricted_allocation,
    restricted_sum_report,
)
from .errors import (
    CapacityError,
    CharacteristicContractError,
    DegenerateRouteError,
    GameError,
    GraphConstructionError,
    ScenarioError,
    UnknownEdgeError,
    UnknownNodeError,
    ZeroNormalizationError,
)
from .games import (
    Allocation,
    AxiomReport,
    CheckResult,
    EngineStats,
    GraphGame,
    NodeCharacteristic,
    axiom_check,
    myerson,
    shapley_dividends,
    shapley_exact,
    shapley_sampled,
    shapley_weights,
    values_close,
)
from .graph import Edge, Graph, Route, build_graph
from .models import (
    CONTAINMENT,
    STRICT_EQUALITY,
    CostDecayParams,
    RouteValue,
    contract_weight_fn,
    power_weight_fn,
    route_closed_form,
    route_values,
    supply_weight_fn,
)
from .scenarios import (
    ContractModel,
    PowerModel,
    Scenario,
    SupplyModel,
    TableModel,
    fixture_names,
    load_fixture,
    load_scenario,
    parse_scenario,
    remove_node,
    serialize_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
