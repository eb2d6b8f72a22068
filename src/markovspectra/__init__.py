"""Gibbs measures, topological pressure and entropy spectra on one-sided
topological Markov shifts with aperiodic transition matrices."""

__version__ = "0.1.0"

from .families import (
    full_shift,
    golden_mean,
    log_p1_potential,
    log_p2_potential,
    p1_matrix,
    p2_matrix,
    reverse_golden_mean,
    ring3,
)
from .modelio import Model, parse_model, serialize_model, word_key
from .perron import (
    CycleMeanExtremes,
    PerronTriple,
    cycle_mean_extremes,
    perron_vector_by_linear_solve,
    stationary_distribution,
)
from .rigidity import (
    DensityProbeResult,
    GnReport,
    RigidityReport,
    appendix_condition_check,
    bernoulli_twin,
    classify_2x2,
    classify_general,
    density_probe,
    g_n_membership,
)
from .shiftspace import (
    BlockRecoding,
    TransitionMatrix,
    admissible_words,
    check_aperiodic,
    higher_block_recode,
    out_degrees,
    symbol_permutation,
    word_count,
)
from .sim import (
    LocalEntropyResult,
    PathSample,
    empirical_local_entropy,
    empirical_spectrum_histogram,
    sample_path,
)
from .spectrum import (
    AlphaRange,
    SpectrumCurve,
    alpha_range,
    entropy_spectrum,
    sample_spectrum,
    spectra_equal,
)
from .thermo import (
    BetaFunction,
    GibbsAudit,
    MarkovMeasure,
    Potential,
    birkhoff_sum,
    cylinder_measure,
    edge_matrix,
    eigen_measure_cylinder,
    entropy_rate,
    gibbs_constant_audit,
    gibbs_markov,
    jacobian,
    log_cylinder_measure,
    normalize_potential,
    potential_integral,
    pressure,
    pressure_by_preimages,
    reduce_to_order2,
)
