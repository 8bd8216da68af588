"""Exact-arithmetic spectral multiplicity calculus on atomic circle models."""

from circlespec.circle import CirclePoint, GeneratorAllocator, parse_fraction
from circlespec.errors import Caps, EnumerationCapError, MeasureFormatError
from circlespec.measure import (
    AtomicMeasure,
    Relation,
    generic_measure,
    measure_from_json,
    measure_to_json,
    relation_scan,
)
from circlespec.permgroup import (
    Perm,
    PermSubgroup,
    closure,
    contiguous_block_group,
    orbit_count_free,
    wreath_block_group,
)
from circlespec.spectral import (
    FiberClass,
    MultiplicityReport,
    check_simplicity_levels,
    check_symmetric_power,
    check_tensor_power,
    check_translate_singularity,
    cs_criterion,
    fibers,
    fock_multiplicity_set,
    girsanov_step,
    matrix_oracle,
    minimal_m_for_cs,
    multiplicity,
    nonsimple_counterexample,
    paired_relation_measure,
    simple_spectrum,
)
from circlespec.markov import (
    Coupling,
    FactorStructure,
    FiniteSpace,
    MarkovOp,
    conditional_expectation_matrix,
    coupling_from_markov,
    dimension_identity,
    inclusion_exclusion_identity,
    markov_from_coupling,
    marginal_coupling,
    product_space,
    project_markov,
    rel_indep_extension,
)
from circlespec.suite import run_battery, run_suite

__version__ = "0.1.0"
