"""Active learning of symbolic Mealy machines over effective Boolean algebras."""

from .algebra import Algebra, AlgebraError, Predicate
from .automata import (
    AutomatonError,
    ConcreteMealy,
    SMealy,
    restrict,
    symbolic_equiv,
)
from .bench import (
    RandomSpec,
    make_atgs,
    make_builtin,
    make_lower_bound,
    make_mh,
    make_worked_example,
    random_sma,
)
from .learner import LearnStats, LearningError, build_evidence, learn, sep_pred
from .obstable import Defect, ObservationTable
from .oracle import (
    EquivOracle,
    Oracle,
    OracleAssumptionViolation,
    OutputOracle,
    ScriptedOracle,
    essential_characters,
)
from .partition import (
    PartitionError,
    partition_intervals,
    partition_product,
    partitioner_for,
)

__all__ = [
    "Algebra", "AlgebraError", "Predicate",
    "AutomatonError", "ConcreteMealy", "SMealy", "restrict", "symbolic_equiv",
    "RandomSpec", "make_atgs", "make_builtin", "make_lower_bound", "make_mh",
    "make_worked_example", "random_sma",
    "LearnStats", "LearningError", "build_evidence", "learn", "sep_pred",
    "Defect", "ObservationTable",
    "EquivOracle", "Oracle", "OracleAssumptionViolation", "OutputOracle",
    "ScriptedOracle", "essential_characters",
    "PartitionError", "partition_intervals", "partition_product", "partitioner_for",
]

__version__ = "0.1.0"
