"""Finite topological spaces, simplicial complexes, and cylinder constructions.

Finite T0-spaces are modelled as posets.  The package provides order
complexes, nerves of covers, collapse certificates, relation cylinders, and
an integer homology backend, plus a CLI (``finspace``) over all of it.
"""

__version__ = "0.1.0"

from .collapse import (
    CollapseCertificate,
    FreeFacePair,
    PointRemoval,
    TriStateResult,
    aggregate_verdict,
    beat_points,
    core,
    free_faces,
    greedy_collapse_complex,
    greedy_collapse_space,
    is_contractible_space,
    replay_complex_certificate,
    replay_space_certificate,
    shadow_report,
)
from .complexes import (
    SimplicialComplex,
    cone,
    order_complex,
    simplex_boundary,
    simplex_id,
    solid_simplex,
)
from .covers import (
    Cover,
    CoverClassification,
    check_nerve_theorem,
    classify_cover,
    n_zero_complex,
    n_zero_subspace,
    nerve,
    non_hausdorff_nerve,
    reduced_nerve,
)
from .cylinders import (
    CylinderSpec,
    Relation,
    check_collapse_left,
    check_collapse_right,
    check_intermediate,
    compose_relations,
    graph_relation,
    mapping_cylinder,
    multiple_cylinder,
    multiple_mapping_cylinder,
    relation_cylinder,
)
from .errors import FinspaceError
from .homology import (
    HomologyResult,
    homology_equal,
    homology_of_poset,
    reduced_homology,
    smith_normal_form,
)
from .persistence import (
    PersistenceDiagram,
    check_truncation_theorem,
    persistence_over_chain,
)
from .posets import FinitePoset, antichain, build_poset, chain

__all__ = [
    "CollapseCertificate",
    "Cover",
    "CoverClassification",
    "CylinderSpec",
    "FinitePoset",
    "FinspaceError",
    "FreeFacePair",
    "HomologyResult",
    "PersistenceDiagram",
    "PointRemoval",
    "Relation",
    "SimplicialComplex",
    "TriStateResult",
    "aggregate_verdict",
    "antichain",
    "beat_points",
    "build_poset",
    "chain",
    "check_collapse_left",
    "check_collapse_right",
    "check_intermediate",
    "check_nerve_theorem",
    "check_truncation_theorem",
    "classify_cover",
    "compose_relations",
    "cone",
    "core",
    "free_faces",
    "graph_relation",
    "greedy_collapse_complex",
    "greedy_collapse_space",
    "homology_equal",
    "homology_of_poset",
    "is_contractible_space",
    "mapping_cylinder",
    "multiple_cylinder",
    "multiple_mapping_cylinder",
    "n_zero_complex",
    "n_zero_subspace",
    "nerve",
    "non_hausdorff_nerve",
    "order_complex",
    "persistence_over_chain",
    "reduced_homology",
    "reduced_nerve",
    "relation_cylinder",
    "replay_complex_certificate",
    "replay_space_certificate",
    "shadow_report",
    "simplex_boundary",
    "simplex_id",
    "smith_normal_form",
    "solid_simplex",
]
