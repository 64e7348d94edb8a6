"""dcedit: editing weighted graphs toward degree and regularity constraints.

The package splits into:

* :mod:`dcedit.graphs` — weighted graphs, degree measures, generators;
* :mod:`dcedit.problems` — instances, constraint checking, edit scripts;
* :mod:`dcedit.oracle` — exhaustive ground-truth solvers;
* :mod:`dcedit.kernelize` — clean regions and the reduction rules;
* :mod:`dcedit.search_tree` — bounded-search-tree solvers;
* :mod:`dcedit.treewidth` — tree decompositions and the regular-subgraph DPs;
* :mod:`dcedit.instance_io` / :mod:`dcedit.cli` — file formats and the CLI.
"""

from .graphs import (
    WeightedGraph,
    common_neighbor_count,
    complete,
    cycle,
    line_graph,
    petersen,
    random_graph,
    weighted_degree,
    weighted_edge_degree,
)
from .problems import (
    ConstraintSet,
    EditScript,
    ProblemInstance,
    SolveReport,
    apply_edit_script,
    check_constraints,
)
from .oracle import brute_force_solve, enumerate_labeled_graphs
from .kernelize import CleanRegion, KernelTrace, find_clean_regions, kernel_bound, kernelize
from .search_tree import (solve, solve_wdce_bst, solve_wedce_bst, solve_were_bst,
                          solve_wsre, tr)
from .treewidth import (
    TreeDecomposition,
    greedy_decomposition,
    solve_induced_regular,
    solve_regular_subgraph,
    solve_with_addition,
    validate_decomposition,
)
from .instance_io import parse_instance, serialize_instance

__all__ = [
    "WeightedGraph",
    "ConstraintSet",
    "ProblemInstance",
    "EditScript",
    "weighted_degree",
    "weighted_edge_degree",
    "common_neighbor_count",
    "line_graph",
    "check_constraints",
    "apply_edit_script",
    "brute_force_solve",
    "enumerate_labeled_graphs",
    "complete",
    "cycle",
    "petersen",
    "random_graph",
    "CleanRegion",
    "KernelTrace",
    "find_clean_regions",
    "kernelize",
    "kernel_bound",
    "SolveReport",
    "solve",
    "solve_wdce_bst",
    "solve_wedce_bst",
    "solve_were_bst",
    "solve_wsre",
    "tr",
    "TreeDecomposition",
    "greedy_decomposition",
    "validate_decomposition",
    "solve_induced_regular",
    "solve_regular_subgraph",
    "solve_with_addition",
    "parse_instance",
    "serialize_instance",
]

__version__ = "0.1.0"
