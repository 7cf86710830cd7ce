"""tensorcert: combinatorial certification of finite/unique completability
for partially observed low-Tucker-rank tensors, with numerical ground-truth
oracles, probabilistic sampling bounds, and a Monte Carlo harness."""

__version__ = "0.1.0"

from .core import (
    SamplingPattern,
    Shape,
    flatten_index,
    matricize_col,
    read_pattern,
    unflatten_index,
    unfold_index,
    write_pattern,
)
from .geometry import RankSpec, canonical_structure, check_Bj, core_dim, manifold_dim
from .assumptions import check_Aj, check_Aj_plus, minimal_hull
from .constraint import ConstraintMatrix, build_constraint, m_count
from .hallgraph import (
    BipartiteGraph,
    defect_at_least,
    expansion_defect,
    generalized_hall_subgraph,
    max_matching,
)
from .certifier import certify_finite, certify_unique, subset_condition_holds
from .bounds import bound_report, emit_curves
from .oracle import enumerate_completions, generate_instance, jacobian_rank
from .montecarlo import TrialConfig, estimate, sample_pattern

__all__ = [
    "__version__",
    "SamplingPattern",
    "Shape",
    "flatten_index",
    "unflatten_index",
    "matricize_col",
    "unfold_index",
    "read_pattern",
    "write_pattern",
    "RankSpec",
    "core_dim",
    "manifold_dim",
    "canonical_structure",
    "check_Aj",
    "check_Aj_plus",
    "check_Bj",
    "minimal_hull",
    "ConstraintMatrix",
    "build_constraint",
    "m_count",
    "BipartiteGraph",
    "max_matching",
    "expansion_defect",
    "defect_at_least",
    "generalized_hall_subgraph",
    "certify_finite",
    "certify_unique",
    "subset_condition_holds",
    "bound_report",
    "emit_curves",
    "generate_instance",
    "jacobian_rank",
    "enumerate_completions",
    "TrialConfig",
    "estimate",
    "sample_pattern",
]
