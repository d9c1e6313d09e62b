"""icelab: exact verification workbench for the three-coloring face model
and the six-vertex model with domain-wall boundaries."""

from .errors import (BranchDomainError, ConfigError, CrossingParameterError,
                     DegenerateCrossingError, EvaluationOverflowError, IcelabError,
                     InvalidColoringError, InvalidStateError, NomeDomainError,
                     NonFiniteParameterError, PoleError, SeriesTruncationError,
                     SizeGuardError)
from .theta import (DEFAULT_SERIES, EllipticParams, SeriesConfig,
                    cubic_factor_D, quasi_period_factor, theta1,
                    theta1_prime_at_zero, theta1_reduced, theta4, zeta,
                    zeta_log_table)
from .sixvertex import (ETA_COMBINATORIAL, SixVertexState, SpectralAssignment,
                        VertexKind, check_recursion_6v, enumerate_dwbc_states,
                        F_n_6v, functional_residual_6v, partition_function_6v,
                        weight6v)
from .threecoloring import (BoundaryCondition, ColoredVertexKind,
                            ColoringCensus, FaceWeightParams, GridColoring,
                            check_recursion_3c, classify_vertex,
                            compute_census, dwbc_boundary, enumerate_colorings,
                            F_rn, functional_residual_3c, iter_colorings,
                            lenard_map, partial_partition_function, phi_ratio_factor,
                            phi_ratio_relation_check, psi_factor, raw_weight,
                            tilde_quasi_period_residual, tilde_weight)
from .yangbaxter import (GaugeData, WeightFamily, YbeSweep, appendix_family,
                         appendix_substitution, apply_gauge_kindwise,
                         gauge_constraint_residual, raw_family,
                         rosengren_family, rosengren_gauge, rosengren_match,
                         sixvertex_family, tilde_family, ybe_sweep, zeta_gauge)

__version__ = "0.1.0"
