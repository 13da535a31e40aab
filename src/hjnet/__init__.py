"""Hamilton-Jacobi homogenization on periodic networks.

From a finite base graph with per-edge Hamiltonians to the effective
Hamiltonian, Mather's alpha/beta functions, minimal-action functionals and a
numerical verification of the homogenization limit.
"""

from .base_graph import (
    BaseGraph,
    Path,
    SpanningTree,
    ThetaMap,
    betti,
    build_graph,
    incidence_vector,
    load_graph,
    rotation_vector,
    spanning_tree,
    theta_map,
)
from .crystal import (
    Crystal,
    CrystalEdge,
    CrystalVertex,
    stable_norm_estimate,
)
from .edge_calculus import (
    EdgeProfile,
    EdgeProfiles,
    QuadraticEdgeModel,
    TabulatedEdgeModel,
    TrigPoly,
    build_profiles,
    critical_value,
    flux_limiter,
    load_hamiltonians,
)
from .cell_problem import (
    effective_hamiltonian,
    enumerate_circuits,
    min_cycle_weight,
)
from .mather import (
    ClosedFlow,
    MatherSolver,
)
from .action import (
    ActionQuery,
    asymptotics_scan,
    min_action,
    path_action,
)
from .homogenize import (
    ConeDatum,
    ExperimentGrid,
    LinearDatum,
    TabulatedDatum,
    convergence_experiment,
    epsilon_solution,
    limit_solution,
)
from .netgen import (
    BaseEmbedding,
    NetworkWindow,
    embed_crystal,
    orbit_length_check,
)

__version__ = "0.1.0"
