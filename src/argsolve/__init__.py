"""Extension solver for (weighted) abstract argumentation frameworks.

The library models attack graphs, evaluates the classical and weighted
acceptability semantics both directly (small-scale ground truth) and
through finite-domain constraint models, handles inconsistency-budget
problems, generates seeded small-world instances, and reads/writes a
simple text interchange format. ``argsolve.cli`` is the command-line
front end.
"""

from .budget import RemovalSet, credulous, is_minimal, minimal_budget, removal_sets, wge
from .encodings import (
    EncodingRequest,
    apply_user_requirements,
    encode,
    enumerate_extensions,
    filter_extremal,
    is_preferred,
)
from .engine import (
    Assignment,
    ConditionalRequirement,
    CostTerm,
    Literal,
    Model,
    Nogood,
    SearchConfig,
    SolveOutcome,
    blevel,
    evaluate,
    solve_all,
    solve_within_budget,
)
from .interchange import DlDocument, DlParseError, emit_dl, emit_dot, emit_results, parse_dl
from .model import ArgumentId, Extension, ExtensionSet, Framework
from .netgen import GenSpec, assign_weights, fig4, gen_barabasi, gen_kleinberg, generate
from .oracle import (
    SemanticsSpec,
    check,
    enumerate_bruteforce,
    grounded_fixpoint,
)
from .semiring import (
    BOOLEAN,
    FUZZY,
    INF,
    PROBABILISTIC,
    WEIGHTED,
    Semiring,
    SemiringValue,
    TagMismatchError,
    boolean_value,
    cost_value,
    format_value,
    make_instance,
    pair_value,
    unit_value,
)

__version__ = "0.1.0"
