"""Numerical laboratory for mean-field dynamics of heterogeneous agents
coupled through sparse weighted networks: finite-N particle systems, the
coupled fibered transport equations they converge to, tree-indexed
observables with their hierarchy, and measure-preserving rearrangements
with quantitative convergence diagnostics."""

__version__ = "0.3.0"

from .kernels import Domain, Kernel, hodgkin_huxley, kuramoto, linear_attraction
from .metrics import AgentLawSpec, GapReport, Law1D, c1, independence_gap, meanfield_gap, w1
from .observables import (
    HierarchyState,
    Observable,
    hierarchy,
    hierarchy_norm,
    hierarchy_residual,
    tau,
    tau_at,
    tau_density,
)
from .particles import StabilityError, integrate
from .pde import (
    CFLError,
    FiberedDensity,
    Grid1D,
    SolveResult,
    gaussian_fibers,
    marginal,
    solve,
    velocity,
)
from .rearrange import CellFunctions, RearrangementMap, build_phi, modulus, rearrange_pair
from .trees import LabeledTree, T1, add_leaf, enumerate_trees
from .weights import (
    ScalingReport,
    SparseWeights,
    check_scaling,
    gen_class_permutation,
    gen_from_graphon,
    gen_uniform,
    kernel_apply,
    load_edge_list,
    save_edge_list,
)
