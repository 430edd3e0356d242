"""sepkit: separability criteria and PPT-set geometry for bipartite states.

The library is organized around a small set of layers:

- linalg: dense complex matrices, structural maps (tensor, partial trace,
  partial transpose, realignment), the one PSD rule (psd_floor), the single
  state validator (check_density), and the DensityMatrix carrier, which runs
  it and keeps the ascending spectrum its PSD check computes as
  ``eigenvalues``; each takes one matrix or a stack.
- states: constructors and seeded samplers, one state or a block per call
  (maximally entangled, tiles UPB, random separable mixtures held as stacked
  product ensembles, bipartite tensor powers).
- criteria: one-shot separability tests (PPT, reduction, entropic,
  majorization, cross norm), each one stacked rule, returning quantitative
  Verdicts.
- symext: the symmetric-extension criterion as convex feasibility, decided by
  a dual quasi-Newton search that returns an extension or a Farkas witness.
- tomography: IC-POVMs, linear-inversion reconstruction, and Monte-Carlo
  acceptance probabilities.
- geometry: witness lower bounds, PPT-boundary bisection, the fidelity
  bound toward the maximally entangled state, and the finite de Finetti
  bound.
- closure: tensor-product closure sweeps for every criterion.
"""

__version__ = "0.1.0"

from .criteria import (
    Verdict,
    cross_norm_test,
    entropic_test,
    majorization_test,
    ppt_test,
    reduction_test,
    run_all,
)
from .geometry import (
    BoundaryResult,
    FarnessResult,
    FidelityBound,
    definetti_bound,
    farness_certificate,
    fidelity_bound_check,
    ppt_boundary_bisect,
    sep_max_overlap_maxent,
    witness_lower_bound,
)
from .linalg import (
    DensityMatrix,
    partial_trace,
    partial_transpose,
    permute_systems,
    psd_margin,
    pure_fidelity,
    realign,
    singular_values,
    tensor,
    trace_distance,
)
from .closure import bipartite_product, closure_check, closure_sweep, symext_closure_check
from .states import (
    Ensemble,
    ProductEnsemble,
    antisym_vector,
    haar_unitary,
    max_entangled,
    max_entangled_vector,
    maximally_mixed,
    random_density,
    random_separable,
    segment_state,
    tensor_power_bipartite,
    tiles_upb_state,
    tiles_upb_vectors,
)
from .symext import (
    ExtensionProblem,
    FeasibilityResult,
    extend_separable,
    has_symmetric_extension,
    symmetrize_b,
    verify_extension,
)
from .tomography import (
    OutcomeCounts,
    Povm,
    acceptance_probability,
    build_ic_povm,
    mixture_acceptance,
    product_povm,
    reconstruct,
    reconstruct_from_probabilities,
    sample_outcomes,
)
