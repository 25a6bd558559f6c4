"""Workload substrate: probabilistic patterns, application models, traces.

The seven probabilistic trace patterns of Table 1 live in
:mod:`repro.traffic.patterns`; statistical application models substituting
the paper's Simics traces in :mod:`repro.traffic.applications`; trace
record/replay in :mod:`repro.traffic.trace`; phase-changing composites in
:mod:`repro.traffic.phased`; and the multicast workload of Section 5.2 in
:mod:`repro.traffic.multicast_traffic`.
"""

from repro.traffic.analysis import (
    Hotspot, detect_hotspots, distance_profile, endpoint_traffic,
    locality_index, summarize, top_flows, weighted_mean_distance_saved,
)
from repro.traffic.applications import (
    APPLICATION_NAMES, APPLICATIONS, ApplicationModel, DistanceHistogram,
    application_pattern, distance_histogram,
)
from repro.traffic.multicast_traffic import (
    CombinedTraffic, MulticastConfig, MulticastTraffic,
)
from repro.traffic.patterns import (
    PATTERN_NAMES, TrafficPattern, all_patterns, dataflow, hot_bidf, hotspot,
    hotspot_at, hotspot_routers, legality_mask, message_class_matrix, uniform,
)
from repro.traffic.permutations import (
    all_permutations, bit_complement, shuffle, transpose,
)
from repro.traffic.phased import PhasedSource
from repro.traffic.probabilistic import ProbabilisticTraffic, expected_frequency
from repro.traffic.trace import Trace, TraceRecord, TraceReplay, record_trace

__all__ = [
    "APPLICATIONS",
    "APPLICATION_NAMES",
    "ApplicationModel",
    "CombinedTraffic",
    "DistanceHistogram",
    "Hotspot",
    "MulticastConfig",
    "MulticastTraffic",
    "PATTERN_NAMES",
    "PhasedSource",
    "ProbabilisticTraffic",
    "Trace",
    "TraceRecord",
    "TraceReplay",
    "TrafficPattern",
    "all_patterns",
    "all_permutations",
    "application_pattern",
    "bit_complement",
    "dataflow",
    "detect_hotspots",
    "distance_histogram",
    "distance_profile",
    "endpoint_traffic",
    "expected_frequency",
    "hot_bidf",
    "hotspot",
    "hotspot_at",
    "hotspot_routers",
    "legality_mask",
    "locality_index",
    "message_class_matrix",
    "record_trace",
    "shuffle",
    "summarize",
    "top_flows",
    "transpose",
    "uniform",
    "weighted_mean_distance_saved",
]
