"""Exact counting of shortest corner-to-corner walks on tiled 1xn and 2xn boards.

Three mutually cross-validating routes for every sequence: brute-force
enumeration over tilings, coupled linear recurrences, and Fibonacci /
Q(sqrt5) closed forms.
"""

from .boards import (
    Board,
    EdgeId,
    PartialKind,
    TileKind,
    TilePlacement,
    Tiling,
    count_tilings,
    enumerate_partial_tilings,
    enumerate_tilings,
    forbidden_edges,
)
from .walks import (
    WalkCountByLine,
    brute_line_totals,
    brute_v,
    brute_w_by_line,
    count_walks_for_tiling,
    enumerate_walks,
)
from .recurrences import (
    CoupledSystemSpec,
    RecurrenceSpec,
    SequenceTable,
    composed_form_check,
    domino_only_recurrence,
    domino_only_system,
    eval_recurrence,
    eval_system,
    tiling_system,
    verify_intermediate_identities,
    w_ninth_order_spec,
    walk_system,
)
from .qsqrt5 import ALPHA, BETA, SQRT5, QSqrt5
from .closedforms import (
    asymptotic_ratio,
    binet_identity_check,
    v_fibonacci_form,
    w_domino_ceiling,
    w_domino_explicit,
    w_domino_fibonacci_form,
)
from .elimination import (
    build_matrix_m,
    charpoly_factorization_check,
    kernel,
    verify_la_lb_combination,
)
from .oeis import BFile, compare_prefix, find_offset_shift, load_fixture

__version__ = "0.1.0"
