"""calmsim: merge-lattice CRDTs, global tables, and a deterministic
multi-worker simulator, exercised by k-mer counting and count-min sketch
workloads."""

from .errors import (CalmsimError, DivergenceError, LatticeLawError,
                     LatticeTypeError, StratificationError,
                     ThresholdMismatchError, UnknownWorkerError)
from .lattice import (GSet, LMap, LMax, LWWSet, LWWTokenSet, LatticeValue,
                      MVSet, ThresholdLSet, Timestamp, TwoPSet,
                      VersionVector, custom_lattice, merge)
from .runtime import (DeliverySchedule, Envelope, NetworkCondition, Program,
                      Simulation, run_to_quiescence)
from .tables import (DNE, IDK, DataflowGraph, GlobalTable, PartitionPlan,
                     QueryPlan, Rule, Scratch, TickRuleEngine, Tristate, Value,
                     compile_rules, detect_cycles, detect_skew,
                     evaluate_stratified, lookup, one_shot_eval, parse_rules,
                     plan_query, rewrite_one_shot, switch_partitioning)

__version__ = "0.1.0"
