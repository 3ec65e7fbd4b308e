"""Virtual distillation error mitigation enhanced by wire cutting, on a dense
density-matrix simulator with configurable device noise."""

__version__ = "0.1.0"

from .benchmarks import (
    AnsatzSpec,
    MaxCutProblem,
    maxcut_hamiltonian,
    optimize_parameters,
    real_amplitudes,
    ring_problem,
)
from .circuit import (
    Circuit,
    CircuitError,
    Gate,
    PauliObservable,
    from_text,
    layers,
    lightcone,
    tensor_two_copies,
    to_text,
)
from .cutting import (
    CutPoint,
    DiagonalSimulationCache,
    PairwisePipeline,
    ReconstructionPlan,
    build_pairwise_pipelines,
    cut_wire,
    recombine,
    reconstruct,
    run_cut,
)
from .experiments import (
    CellResult,
    ExperimentConfig,
    ExperimentResult,
    emit,
    run_experiment,
)
from .noise import NOISELESS, NoiseModel, insert_zz_crosstalk, preset
from .runner import Batch, BatchStats, Execution, ExecutionRecord, run_circuit, run_circuits
from .simulate import (
    DensityMatrix,
    Distribution,
    PauliState,
    apply_readout,
    evolve,
    exact_probs,
    expectation,
    marginal,
    sample,
    tv_distance,
)
from .sweep import growth_exponent, overhead_sweep, write_sweep_csv
from .transpile import (
    CouplingMap,
    RoutedCircuit,
    coupling_map_for,
    decompose_to_basis,
    fully_connected,
    heavy_hex,
    linear,
    route,
)
from .vd import (
    ParityEstimate,
    ParityGroup,
    VDEstimate,
    build_vd_circuit,
    estimate_from_distribution,
    oracle_mitigated_expectation,
    parity_groups,
)
from .zne import extrapolate_linear, fold_diagonalizing
