"""Thick-cluster VC dimension toolkit.

Computes the classical VC dimension of finite concept classes, the VC
dimension after discarding a negligible set of points (directly, and through
the quotient of the generated finite Boolean algebra, as a cross-check), and
a thick-cluster variant that only counts shattering by pairwise-disjoint
clusters of a minimum size. A Monte Carlo harness estimates PAC learning
error and uniform deviations of empirical measures over a class, and packing
routines quantify the metric-entropy obstruction to uniform convergence.
"""

__version__ = "0.1.0"

from .classgen import (
    gen_cluster_decorated,
    gen_finite_cofinite,
    gen_intervals,
    gen_power_set,
    gen_random,
    gen_thresholds,
)
from .domain import (
    ClusterFamily,
    Concept,
    ConceptClass,
    Domain,
    PrincipalIdeal,
    restrict,
)
from .empirics import (
    empirical_sup_deviation,
    packing_lower_bounds,
    packing_number,
    pattern_packing,
    ugc_cell,
    ugc_curve,
)
from .errors import (
    DomainMismatch,
    EmptyClassError,
    EmptyWitness,
    FormatError,
    NoConsistentHypothesis,
    ThickVCError,
    WorkLimitExceeded,
)
from .fincofin import FCSet, FiniteCofiniteClass, fc_distance
from .formats import read_class, read_point_set, save_class, save_point_set
from .learning import (
    LearnerSpec,
    adversarial_consistent_learner,
    enumeration_learner,
    learner_image,
    pac_error_estimate,
    sample_complexity_bound,
)
from .measures import (
    DiscreteMeasure,
    mixture,
    symdiff_distance,
    uniform,
    uniform_on,
)
from .rng import derive_rng
from .shattering import (
    DEFAULT_WORK_LIMIT,
    ShatterCertificate,
    canonical_witness,
    is_strongly_shattered,
    vc_after_removal,
    vc_dimension,
    vc_mod_ideal,
    vc_thick,
)
from .stone import (
    generated_partition,
    induced_on_quotient,
    lift_witness,
    quotient_space,
    stone_check,
    vc_on_stone,
)

__all__ = [
    "__version__",
    "ClusterFamily",
    "Concept",
    "ConceptClass",
    "DEFAULT_WORK_LIMIT",
    "DiscreteMeasure",
    "Domain",
    "DomainMismatch",
    "EmptyClassError",
    "EmptyWitness",
    "FCSet",
    "FiniteCofiniteClass",
    "FormatError",
    "LearnerSpec",
    "NoConsistentHypothesis",
    "PrincipalIdeal",
    "ShatterCertificate",
    "ThickVCError",
    "WorkLimitExceeded",
    "adversarial_consistent_learner",
    "canonical_witness",
    "derive_rng",
    "empirical_sup_deviation",
    "enumeration_learner",
    "fc_distance",
    "gen_cluster_decorated",
    "gen_finite_cofinite",
    "gen_intervals",
    "gen_power_set",
    "gen_random",
    "gen_thresholds",
    "generated_partition",
    "induced_on_quotient",
    "is_strongly_shattered",
    "learner_image",
    "lift_witness",
    "mixture",
    "pac_error_estimate",
    "packing_lower_bounds",
    "packing_number",
    "pattern_packing",
    "quotient_space",
    "read_class",
    "read_point_set",
    "restrict",
    "sample_complexity_bound",
    "save_class",
    "save_point_set",
    "stone_check",
    "symdiff_distance",
    "ugc_cell",
    "ugc_curve",
    "uniform",
    "uniform_on",
    "vc_after_removal",
    "vc_dimension",
    "vc_mod_ideal",
    "vc_on_stone",
    "vc_thick",
]
