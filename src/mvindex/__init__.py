"""mvindex: storage-budgeted selection of materialized views and B-tree
indexes for star-schema warehouses, with an interaction-aware greedy
selector and a deterministic block-I/O cost model."""

from .catalog import (
    AttributeStats,
    SchemaCatalog,
    TableStats,
    blocks,
    format_catalog,
    load_catalog,
    scale_catalog,
)
from .workload import Predicate, Query, Workload, format_query, load_workload, parse_query
from .candidates import (
    IndexCandidate,
    UsageMatrices,
    ViewCandidate,
    build_matrices,
    format_candidates,
    generate_index_candidates,
    generate_view_candidates,
    load_candidates,
    usable_index,
    usable_view,
)
from .costmodel import (
    COST_MODEL_ID,
    Configuration,
    CostContext,
    CostReport,
    QueryCosts,
    maintenance_cost,
    member_key,
    object_size,
    workload_cost,
)
from .benefit import (
    ObjectiveParams,
    SelectionObject,
    object_benefit,
    objective_value,
    update_weight,
)
from .selector import (
    SelectionResult,
    enumerate_objects,
    greedy_select,
    incremental_size,
)
from .baselines import exhaustive_select, isolated_select
from .errors import (
    AdvisorError,
    InvalidBudgetError,
    ParseError,
    TooManyObjectsError,
    UnknownNameError,
    ValidationError,
)

__version__ = "0.1.0"
