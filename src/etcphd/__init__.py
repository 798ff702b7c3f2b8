"""Extended-target CPHD corrector on finite grids.

The corrector consumes a prior intensity, a prior cardinality distribution,
a sensor model and one labeled measurement set, and produces the posterior
intensity plus the posterior cardinality distribution, summing over every
partition of the measurement set and every sub-partition of its cells.
Exact references ship alongside: an exhaustive multi-target Bayes oracle
for micro scenarios and independent implementations of the two limit
filters (extended-target PHD, standard-target CPHD).
"""

__version__ = "0.1.0"

from .corrector import (
    CoefficientTable,
    CorrectorOptions,
    CorrectorResult,
    cell_coefficient,
    cell_detection_mass,
    coefficient_table,
    corrector_step,
    detection_profile,
    missed_detection_correction,
    partition_weights,
    posterior_cardinality_closed_form,
    posterior_pgf_series,
    subpartition_product,
    update_intensity,
)
from .errors import (
    DegeneratePriorError,
    DegenerateUpdateError,
    DivisionSingularityError,
    EvaluationError,
    FilterError,
    ModelMismatchError,
    ModelViolationError,
    NumericalOverflowError,
    SingularEvaluationError,
    SizeLimitError,
    ValidationError,
)
from .oracle import compare_to_corrector, exact_posterior, multi_target_likelihood, tuple_prior
from .partitions import Partition, bell_number, is_partition_of, partitions_of, subpartitions_of
from .pgf import CardinalityPgf, Jet
from .reductions import (
    check_poisson_reduction,
    check_standard_reduction,
    etphd_update,
    std_cphd_update,
)
from .scenario import Scenario, StepResult, load_scenario, scenario_from_dict
from .simulate import make_rng, predict_step, sample_iid_cluster, simulate
from .statespace import (
    ContinuousKernel,
    DiscreteKernel,
    Intensity,
    MeasurementSet,
    SensorModel,
    SpatialDensity,
    StateGrid,
    bracket,
    likelihood_ratio_product,
    missed_detection_mass,
    normalize_intensity,
)
