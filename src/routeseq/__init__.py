"""Predicting the stop/zone sequences delivery drivers actually execute.

The package couples a pair-wise attention pointer network (plus three
benchmark models) with exact/heuristic TSP solvers, a first-stop-iterating
sequence generator, a zone-to-stop completion procedure, and the disparity
score used to compare predicted against executed routes.
"""

from .domain import (
    PAIR_FEATURE_NAMES,
    ZONE_FEATURE_NAMES,
    RouteInstance,
    StopRecord,
    Zone,
    ZoneInstance,
    build_zone_instance,
    node_features,
    pair_tensor,
    parse_zone_id,
)
from .errors import (
    ConfigError,
    InvalidInputError,
    MalformedRouteError,
    NumericError,
    RouteSeqError,
    SchemaError,
    TrainingDivergedError,
)

__version__ = "0.1.0"
