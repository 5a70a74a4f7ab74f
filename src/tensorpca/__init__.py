"""Matrix-free spectral laboratory for spiked-tensor detection and recovery.

The package is organized around the lifecycle of one experiment:

    instance    -- signal vectors, Gaussian tensors, spikes, noise splits
    fock        -- occupation basis, state vectors, embeddings
    hamiltonian -- the implicit operator H(T) and its dense oracles
    spectral    -- Lanczos, filtered projectors, spectra, analytic bounds
    pipeline    -- detection algorithms and the multistep cascade
    recovery    -- density matrices, candidate extraction, boosting
    cli         -- seeded experiment harness with JSON/CSV reports
"""

from ._util import CapacityError, ConvergenceError, InvalidParameterError, derived_rng
from .fock import (
    OccupationBasis,
    StateVector,
    build_basis,
    embed_power_state,
    embed_product_state,
    symmetrized_product,
)
from .hamiltonian import (
    HamiltonianOperator,
    first_quantized_dense,
    ideal_energy,
    ideal_moment2,
    restrict_to_symmetric,
)
from .instance import (
    DecorrelatedPair,
    ModelParams,
    SpikedTensor,
    decorrelate,
    default_zeta,
    lambda_effective,
    load_tensor,
    make_spiked,
    sample_gaussian_tensor,
    sample_instance,
    sample_signal,
    save_tensor,
)
from .pipeline import (
    DETECTORS,
    CostExponentTable,
    DetectionConfig,
    DetectionReport,
    MultistepReport,
    amplification_rounds,
    boosted_probability,
    cost_exponents,
    detect_projection,
    detect_spectral,
    multistep_levels,
    multistep_q_j,
    multistep_run,
    p_threshold,
    projection_cutoff,
    projection_nbos,
    projection_statistic,
    simulate_quantum_amplified,
    simulate_quantum_unamplified,
)
from .recovery import (
    RecoveryReport,
    boost,
    corr,
    randomized_recover,
    recovery_chain,
    spdm,
)
from .spectral import (
    AnalyticBounds,
    ApproxProjector,
    DosEstimate,
    RitzDecomposition,
    analytic_bounds,
    density_of_states,
    full_spectrum,
    lanczos,
    leading_eigenvalue,
    project_above,
)
from .symtensor import SymmetricTensor4, rank_one

__version__ = "0.1.0"
