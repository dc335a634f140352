"""Exact classical and leaky values of two-prover one-round games,
parallel repetition, CSP verifier games, and protocol simulation."""

from .csp import (CheatProfile, Constraint, CspInstance, LabelCover,
                  cheat_acceptance, consistency_game, csp_value_exact,
                  csp_value_local_search, edge_game, find_low_value_instance,
                  load_instance, make_constraint, optimal_cheat, save_csp,
                  save_label_cover)
from .errors import (BudgetExceededError, FormatError, GeneratorCapError,
                     InvalidInputError)
from .games import (Game, StrategyPair, chsh, classical_value, load_game,
                    make_game, merged_prover_value, save_game,
                    strategy_value)
from .harness import (ExperimentRecord, MeteredChannel, ProverBehavior,
                      Transcript, estimate_acceptance, instance_id,
                      replay_verify, run_session)
from .leakage import (LeakageKind, LeakageModel, LeakyStrategy,
                      guess_and_abort_value, leaky_strategy_value,
                      leaky_value_exact, leaky_value_upper_bound, one_way_ab,
                      one_way_ba, simultaneous)
from .repetition import (RepeatedGame, leaky_repetition_experiment,
                         repeat_game, repeated_exact_value)

__version__ = "0.1.0"
