"""Exact search and verification for sunflowers, intersecting families,
and triple systems in uniform hypergraphs."""

from .constructions import (ConstructionReport, DesignSpec,
                            VerificationReport, build_counterexample,
                            build_star, build_triple_system,
                            complement_triples, find_perfect_matching,
                            verify_counterexample)
from .errors import (AdmissibilityError, BudgetExceeded, ConstructionError,
                     FormatError, ParameterError, PreconditionError,
                     UniformityError)
from .extremal import (CONFIG_KINDS, ExtremalResult, ForbiddenConfig,
                       StabilityReport, max_avoiding, stability_scan)
from .hgio import (load_hypergraph, parse_hypergraph, save_hypergraph,
                   serialize_hypergraph)
from .homogeneous import (HomogeneousCertificate, HomogeneousCheck,
                          extract_homogeneous, homogeneous_size_bound,
                          is_homogeneous)
from .hypergraph import (Edge, Hypergraph, codegree, codegree_histogram,
                         edge_weight, mask_of, max_codegree2, meet, shadow,
                         subset_degrees, vertex_tuple, vertices_of,
                         weight_identity)
from .intersecting import (FamilyWitness, KMFamily, TEMPLATE_TAGS,
                           check_km_codegree_bounds, check_nontrivial,
                           classify_intersecting, find_nontrivial_subfamily,
                           is_d_simplex, is_dwise_intersecting,
                           km_codegree_bound)
from .patterns import (IntersectionPattern, intersection_structure, project,
                       rank, validate_vertex_partition)
from .search import Check, NodeCounter, SearchOutcome, SearchStatus
from .sunflowers import (ClusterCheck, Sunflower, SunflowerCheck,
                         SunflowerCluster, check_cluster, check_semi_cluster,
                         check_sunflower, complete_cluster, find_cluster,
                         find_sunflower, is_sunflower)

__version__ = "0.1.0"
