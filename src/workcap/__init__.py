"""Work rates and work capacity of percept-action loops.

Finite hidden Markov agents and environments, the global Markov chain of
their interaction, exact information measures over trajectory tables,
maximally predictive agent construction, and work-capacity computation with
closed forms for noiseless / memoryless invariant / unifilar product
channels plus a numeric lower bound for everything else.
"""

from .agents import (build_identity, build_last_action, build_memoryless,
                     build_predictive, build_uniform)
from .bayesnet import Dag, build_loop_dag, d_separated, validate_compatibility
from .capacity import (CapacityResult, capacity_lower_bound, capacity_memoryless,
                       capacity_noiseless, capacity_unifilar_product,
                       check_subadditivity, classify_agent_sets,
                       compute_capacity)
from .channels import (AgentModel, EnvironmentModel, cascade, is_memoryless_invariant,
                       is_noiseless, is_product, is_unifilar, load_model, save_model)
from .errors import (BudgetError, ChannelClassError, ConvergenceError,
                     DimensionError, DomainError, InternalConsistencyError,
                     ModelFormatError, WorkcapError)
from .info import (BITS, NATS, JointTable, conditional_entropy,
                   conditional_mutual_information, entropy, entropy_rate)
from .loop import (GlobalChain, PerceptActionLoop, TrajectoryDistribution,
                   WorkReport, am_predictiveness, build_global_chain,
                   future_predictiveness, predictiveness_score,
                   trajectory_distribution, work_rate)
from .markov import (Distribution, StateClassification, TransitionKernel,
                     classify_states)

__version__ = "0.1.0"
