"""Dynamic allocation indices for restless bandits and queueing control.

The package is organized in layers: finite set systems and the
adaptive-greedy index algorithms over them (:mod:`pclindex.setsystem`,
:mod:`pclindex.greedy`), general restless-bandit measures and
indexability machinery (:mod:`pclindex.bandit`), an exact dynamic
programming oracle used for independent verification (:mod:`pclindex.dp`),
the birth--death admission-control specialization with its closed
recursions (:mod:`pclindex.admission`), and heuristic index policies for
routing and make-to-stock scheduling evaluated by exact event-driven
simulation (:mod:`pclindex.policies`, :mod:`pclindex.simulate`).
"""

__version__ = "0.1.0"

from .setsystem import (SetSystem, ValidationReport, enumerate_full_strings,
                        powerset_family, product, threshold_family, validate)
from .greedy import (AGOutput, WorkloadOracle, ag1, ag2, dual_solution,
                     local_minmax_check, lp_value, objective_representation_check,
                     primal_vertex, second_order_workload_recursion)
from .bandit import (AverageLimits, ConstrainedPolicy, DMRReport, PCLReport,
                     RBModel, activity_measure, average_limits,
                     average_pcl_index, constrained_policy, cost_measure,
                     dmr_report, marginal_cost, marginal_workload,
                     normalized_passive_cost,
                     occupation_measures, pcl_index, value_breakpoints,
                     verify_cost_decomposition, verify_workload_decomposition)
from .dp import DPResult, crosscheck_indices, fair_charge, nu_sweep, solve
from .admission import (ACModel, ak_coefficients, average_indices,
                        closed_form_index, indices, marginal_cost_pivots,
                        threshold_steady_state, uniformize, validate_assumptions,
                        whittle_counterexample, whittle_variant, workload_pivots,
                        workload_table)
from .policies import (MTSSystem, ProductSpec, QueueSpec, RoutingSystem,
                       mts_decide, mts_index, routing_decide, routing_index,
                       switching_curve)
from .simulate import SimConfig, SimReport, simulate, simulate_all
from .errors import (AssumptionError, DegeneracyError, InfeasibleTargetError,
                     InternalConsistencyError, NumericalRangeError, PclIndexError,
                     StructureError, UnsupportedModelError)
