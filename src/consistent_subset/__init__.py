"""Exact solvers for consistent subsets of vertex-colored graphs.

A subset S of vertices is *consistent* when every vertex has, among its
hop-distance-nearest members of S, at least one of its own color; it is
*strictly consistent* when all of them share its color.  This package
finds minimum subsets of both kinds (brute force everywhere, a
polynomial dynamic program on trees), verifies candidates, and builds
instance families whose optima are known by construction.
"""

from .exact import (DEFAULT_VERTEX_CAP, brute_force_mcs, brute_force_mscs,
                    min_dominating_set, min_set_cover, min_vertex_cover)
from .graph import (Certificate, ColoredGraph, ParseError, PreconditionError,
                    blocks, format_graph, format_subset, is_consistent,
                    is_strict_consistent, parse_graph, parse_subset)
from .instances import (SplitMix64, random_connected_graph, random_set_cover,
                        random_tree, random_two_sat)
from .reductions import (Interval, IntervalInstance, ReductionMetadata,
                         SetCoverInstance, TwoSatFormula,
                         assignment_certificate, cubic_vc_to_intervals,
                         dominating_set_to_mcs, ds_mscs_certificate,
                         format_intervals, format_metadata, format_set_cover,
                         interval_cover_certificate, intervals_to_graph,
                         max2sat_to_tree, parse_cnf2, parse_intervals,
                         parse_set_cover, planar_ds_to_mscs,
                         set_cover_to_mscs)
from .treedp import DEFAULT_COLOR_CAP, solve_tree_mcs

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_COLOR_CAP", "DEFAULT_VERTEX_CAP",
    "Certificate", "ColoredGraph",
    "Interval", "IntervalInstance", "ParseError", "PreconditionError",
    "ReductionMetadata", "SetCoverInstance", "SplitMix64",
    "TwoSatFormula",
    "assignment_certificate", "blocks",
    "brute_force_mcs", "brute_force_mscs", "cubic_vc_to_intervals",
    "dominating_set_to_mcs", "ds_mscs_certificate",
    "format_graph", "format_intervals", "format_metadata", "format_set_cover",
    "format_subset", "interval_cover_certificate", "intervals_to_graph",
    "is_consistent", "is_strict_consistent", "max2sat_to_tree",
    "min_dominating_set", "min_set_cover", "min_vertex_cover",
    "parse_cnf2", "parse_graph", "parse_intervals",
    "parse_set_cover", "parse_subset", "planar_ds_to_mscs",
    "random_connected_graph", "random_set_cover",
    "random_tree", "random_two_sat",
    "set_cover_to_mscs", "solve_tree_mcs",
]
