"""Deal-level co-investment network analytics.

Builds temporal bipartite investor-firm graphs, computes centrality
covariates on their projections, characterizes firm funding
trajectories, fits binary/scalar/functional success models, and runs a
centrality-ranked investment backtest. See the README for the pipeline
CLI and the demos directory for library walkthroughs.
"""

__version__ = "0.1.0"

# numpy imports these on first use (a random draw; np.median, np.unique), which every
# run makes: load them with the package, not partway through a run.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from .backtest import BacktestReport, hypergeom_pvalue, run_strategy
from .centrality import (CentralityFrame, FirmCovariates, assemble_covariates, average_neighbor_degree,
                         betweenness, closeness, clustering, compute_frame, core_number,
                         covariate_columns, degree_centrality, eigenvector, harmonic,
                         newman_betweenness, pagerank, voterank)
from .errors import (ConfigError, ConvergenceError, InvariantError, MissingArtifactError,
                     RankDeficientError, SchemaError, VcnetError)
from .features import (FeatureGrouping, FeatureMatrix, correlation_dendrogram, cut_groups,
                       enumerate_configs, matrix_from_covariates, preprocess, sample_skewness)
from .graph import (ProjectedGraph, TemporalBipartiteGraph, build_bipartite,
                    first_rounds, project_firms, project_investors)
from .ingest import (DealRecord, FirmMeta, SyntheticConfig, SyntheticDataset, generate_synthetic,
                     parse_deals, write_deals, write_firms)
from .pipeline import RunConfig, run_pipeline, run_stage
from .regress import (BalancedEnsemble, FunctionalFit, LinearFit, LogisticFit, balanced_ensemble,
                      build_controls, confusion_metrics, confusion_vs_standard,
                      fit_function_on_scalar, fit_linear, fit_logistic, perturbation_sweep,
                      responses, select_model, window_sweep)
from .seeding import derive_seed
from .trajectories import (ClusterAssignment, Trajectory, TrajectorySet, build_trajectories,
                           functional_kmeans, regime_rates)
