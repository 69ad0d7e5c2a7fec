"""Monotone colorings of ordered complete uniform hypergraphs.

Construction of tower-sized long-path-free colorings, recursive block
colorings with free entries, exhaustive enumeration and counting,
small monotone Ramsey numbers, and pseudoline wiring diagrams for the
3-uniform case.
"""

from .core import (
    SignFunction,
    colex_rank,
    dumps,
    is_monotone,
    is_transitive,
    link_sequence,
    loads,
    monotone_violation,
    read_file,
    transitive_violation,
    write_file,
)
from .paths import PathReport, contains_path, longest_mono_paths
from .tower import TowerElement, TowerGroundSet, tower_coloring, tower_sizes
from .compositions import (
    TernaryColoring,
    block_coloring,
    completions,
    compositions,
    reduction,
    sign,
    zero_lower_bound,
)
from .enumeration import (
    CountReport,
    RamseyReport,
    brute_force_monotone_count,
    brute_force_transitive_count,
    count_monotone,
    enumerate_monotone,
    find_avoiding_coloring,
    project,
    projection_signature,
    ramsey_number,
    random_monotone_coloring,
    tow,
)
from .geometry import (
    WiringDiagram,
    crossing_constraints,
    is_acyclic,
    render_svg,
    signs_from_wiring,
    sweep_text,
    wiring_diagram,
)

__version__ = "0.1.0"

__all__ = [
    "SignFunction", "colex_rank", "dumps",
    "is_monotone", "is_transitive", "link_sequence", "loads",
    "monotone_violation", "read_file", "transitive_violation", "write_file",
    "PathReport", "contains_path", "longest_mono_paths",
    "TowerElement", "TowerGroundSet", "tower_coloring", "tower_sizes",
    "TernaryColoring", "block_coloring", "completions", "compositions",
    "reduction", "sign", "zero_lower_bound",
    "CountReport", "RamseyReport", "brute_force_monotone_count",
    "brute_force_transitive_count", "count_monotone", "enumerate_monotone",
    "find_avoiding_coloring", "project", "projection_signature",
    "ramsey_number", "random_monotone_coloring", "tow",
    "WiringDiagram", "crossing_constraints", "is_acyclic", "render_svg",
    "signs_from_wiring", "sweep_text", "wiring_diagram",
    "__version__",
]
