"""Exact and simulated visit-count distributions for two-state Markov chains.

The closed form (``visit_probability`` / ``visit_distribution``), an
exhaustive-enumeration referee (``oracle_distribution``), a path census
(``census_by_j``: builds only the paths it counts, each from the positions
of its visits, and reads their transition counts from adjacent pairs) and
a seeded Monte Carlo simulator (``simulate``) expose the same quantities
through independent routes; the test suite holds them to bit-exact
agreement in the exact backend.
"""

from visitprob.chain_model import (
    ChainSpec,
    State,
    TransitionCounts,
    VisitQuery,
    build_chain,
    swap_labels,
)
from visitprob.closed_form import (
    SummationLimits,
    TermCell,
    VisitDistribution,
    moments,
    prob_given_start_s0,
    prob_given_start_s1,
    summation_limits,
    term_census,
    visit_distribution,
    visit_probability,
)
from visitprob.combinatorics import BinomialTable, binomial, log_binomial
from visitprob.errors import (
    BackendMismatchError,
    EnumerationGuardError,
    NumericalError,
    ParameterError,
    VisitProbError,
)
from visitprob.numerics import (
    NumericMode,
    ProbValue,
    convert,
    parse_probability,
    pow_prob,
    sum_values,
)
from visitprob.oracle import (
    CensusCell,
    SimulationResult,
    census_by_j,
    enumeration_guard,
    oracle_distribution,
    simulate,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # numerics
    "NumericMode",
    "ProbValue",
    "pow_prob",
    "sum_values",
    "convert",
    "parse_probability",
    # combinatorics
    "BinomialTable",
    "binomial",
    "log_binomial",
    # chain model
    "State",
    "TransitionCounts",
    "ChainSpec",
    "VisitQuery",
    "build_chain",
    "swap_labels",
    # closed form
    "SummationLimits",
    "VisitDistribution",
    "TermCell",
    "summation_limits",
    "prob_given_start_s1",
    "prob_given_start_s0",
    "visit_probability",
    "visit_distribution",
    "moments",
    "term_census",
    # oracle
    "CensusCell",
    "SimulationResult",
    "enumeration_guard",
    "oracle_distribution",
    "census_by_j",
    "simulate",
    "total_variation",
    # errors
    "VisitProbError",
    "ParameterError",
    "BackendMismatchError",
    "EnumerationGuardError",
    "NumericalError",
]
