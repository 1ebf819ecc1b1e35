"""Exact linear algebra reproducing the shift-vector elimination.

Relations A and B and their weights are polynomials in the backward shift
x. Column k of the 12x11 matrix is x^k R_A (k < 6) or -x^k R_B (k < 5), its
rows the coefficients of c2(n+1), c2(n), ..., c2(n-10). Its kernel holds
the weights alpha, beta with alpha R_A = beta R_B, and alpha L_A - beta L_B
is x times the 9th-order recurrence for the walk totals. The factored
characteristic polynomials of the one-member recurrences are tables here,
and the composed form of w is the product of W_FACTORS' reversed factors.
Every numeric check applies these operators to the walk tables through
`recurrences.relation_check`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import index

from .errors import CheckResult
from .polynomials import IntPoly, expand, factored_str
from .recurrences import (
    RELATIONS,
    domino_only_recurrence,
    eval_system,
    relation_check,
    v_fourth_order_spec,
    w_ninth_order_spec,
    walk_system,
)

# weights on the A-side and B-side shifts solving the elimination
ALPHA_WEIGHTS = (1, -5, 7, -3, -4, 2)
BETA_WEIGHTS = (1, -3, 5, -2, -1)


@dataclass(frozen=True)
class RatMatrix:
    rows: int
    cols: int
    entries: tuple  # tuple of row tuples, int; from_rows rejects any non-integer

    @staticmethod
    def from_rows(rows):
        data = tuple(tuple(index(x) for x in row) for row in rows)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged matrix")
        return RatMatrix(len(data), len(data[0]) if data else 0, data)

    def mul_vector(self, v):
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) for row in self.entries)


_SHIFT = IntPoly([0, 1])  # x, the backward shift
_SIDES = {name: IntPoly(coeffs) for name, coeffs in RELATIONS.items()}
_ALPHA, _BETA = IntPoly(ALPHA_WEIGHTS), IntPoly(BETA_WEIGHTS)

# The weighted R sides cancel as polynomials in the shift x, and the
# weighted L sides leave x times the ten-term relation: its coefficients
# apply to r2(n-1), r2(n-2), ..., r2(n-10) and sum to zero.
_WEIGHTED_L = _ALPHA * _SIDES["L_A"] - _BETA * _SIDES["L_B"]
TEN_TERM_RELATION = _WEIGHTED_L.coeffs[1:]


def build_matrix_m():
    """12x11 matrix whose kernel carries the combination weights.

    Columns 1..6 are x^k R_A, columns 7..11 are -x^k R_B (the B-sum enters
    the vector equation with a minus); row i holds the coefficients of x^i.
    """
    cols = [_SHIFT**k * _SIDES["R_A"] for k in range(len(ALPHA_WEIGHTS))]
    cols += [-(_SHIFT**k * _SIDES["R_B"]) for k in range(len(BETA_WEIGHTS))]
    return RatMatrix.from_rows(zip_longest(*(c.coeffs for c in cols), fillvalue=0))


# the matrix exactly as printed; build_matrix_m must reproduce it bit-for-bit
PRINTED_M = (
    (1, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0),
    (-1, 1, 0, 0, 0, 0, 3, -1, 0, 0, 0),
    (0, -1, 1, 0, 0, 0, 2, 3, -1, 0, 0),
    (5, 0, -1, 1, 0, 0, -6, 2, 3, -1, 0),
    (0, 5, 0, -1, 1, 0, 3, -6, 2, 3, -1),
    (-4, 0, 5, 0, -1, 1, 9, 3, -6, 2, 3),
    (-1, -4, 0, 5, 0, -1, 0, 9, 3, -6, 2),
    (0, -1, -4, 0, 5, 0, -2, 0, 9, 3, -6),
    (0, 0, -1, -4, 0, 5, 0, -2, 0, 9, 3),
    (0, 0, 0, -1, -4, 0, 0, 0, -2, 0, 9),
    (0, 0, 0, 0, -1, -4, 0, 0, 0, -2, 0),
    (0, 0, 0, 0, 0, -1, 0, 0, 0, 0, -2),
)


def kernel(m):
    """Null-space basis via fraction-free (Bareiss) forward elimination.

    Back-substitution runs in exact rationals; each basis vector is scaled
    to a primitive integer vector with positive leading entry, so the
    output is deterministic.
    """
    rows = [list(row) for row in m.entries]
    n_rows, n_cols = len(rows), m.cols
    pivot_cols = []
    piv_r = 0
    prev_pivot = 1
    for col in range(n_cols):
        pr = next((i for i in range(piv_r, n_rows) if rows[i][col] != 0), None)
        if pr is None:
            continue
        rows[piv_r], rows[pr] = rows[pr], rows[piv_r]
        p = rows[piv_r][col]
        for i in range(piv_r + 1, n_rows):
            fi = rows[i][col]
            rows[i] = [
                (p * rows[i][j] - fi * rows[piv_r][j]) // prev_pivot
                for j in range(n_cols)
            ]
        pivot_cols.append(col)
        prev_pivot = p
        piv_r += 1
    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for i in range(len(pivot_cols) - 1, -1, -1):
            pc = pivot_cols[i]
            s = sum(rows[i][j] * v[j] for j in range(pc + 1, n_cols))
            v[pc] = -s / rows[i][pc]
        basis.append(_primitive(v))
    return basis


def _primitive(v):
    scale = lcm(*(x.denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def verify_la_lb_combination(upto, tables=None):
    """Numeric checks of the two relations, their weighted combination, and
    the ten-term relation they imply for the walk totals, whose coefficients
    must be those of the 9th-order recurrence."""
    if upto < 12:
        raise ValueError("need upto >= 12 to cover every shift")
    if tables is None:
        tables = eval_system(walk_system(), upto + 1, ("r2", "c2"))
    ninth = annihilator(w_ninth_order_spec()).coeffs
    alpha_r, beta_r = _ALPHA * _SIDES["R_A"], _BETA * _SIDES["R_B"]
    # relation X reads L_X(x) r2 at n = R_X(x) c2 at n + 1
    return [
        relation_check(f"elimination:relation-{rel}", first, upto - 1, 1, {
            "r2": (_SHIFT * _SIDES[f"L_{rel}"]).coeffs,
            "c2": (-_SIDES[f"R_{rel}"]).coeffs,
        }, tables)
        for rel, first in (("A", 5), ("B", 6))
    ] + [
        CheckResult("elimination:weighted-R-sides", alpha_r == beta_r, alpha_r, beta_r),
        relation_check("elimination:weighted-L-sides", 10, upto, 0,
                       {"r2": _WEIGHTED_L.coeffs}, tables),
        relation_check("elimination:ten-term-relation", 11, upto, 0,
                       {"r2": (0, *TEN_TERM_RELATION)}, tables),
        CheckResult("elimination:derives-w-9th", TEN_TERM_RELATION == ninth,
                    ninth, TEN_TERM_RELATION),
    ]


def annihilator(spec):
    """1 - P(x), the row that maps m to 0, for a one-member system m(n) = P(x) m(n)."""
    [(member, row)] = spec.equations.items()
    return IntPoly([1]) - IntPoly(row[member])


def charpoly(spec):
    """The characteristic polynomial of a one-member system: its annihilator reversed."""
    return IntPoly(annihilator(spec).coeffs[::-1])


# The factored characteristic polynomial of the 9th-order w recurrence as
# (factor, power) pairs; the squared cubic is that of the tiling count r.
W_FACTORS = (
    (IntPoly([1, 1]), 1),
    (IntPoly([1, -3, 1]), 1),
    (IntPoly([1, -1, -3, 1]), 2),
)
_FIB_QUAD = IntPoly([-1, -1, 1])  # x^2 - x - 1

# The factored characteristic polynomial of each one-member spec as rows
# (check name, spec, (factor, power) pairs).
CHARPOLY_FACTORS = (
    ("charpoly-w-9th", w_ninth_order_spec, W_FACTORS),
    ("charpoly-domino-6th", domino_only_recurrence,
     ((IntPoly([-1, 1]), 1), (IntPoly([1, 1]), 1), (_FIB_QUAD, 2))),
    ("charpoly-v-4th", v_fourth_order_spec, ((_FIB_QUAD, 2),)),
)


def charpoly_factorization_check():
    """Expand the factor tables and compare with the recurrences: each check
    expects the factored form and reads the characteristic polynomial."""
    polys = {name: charpoly(spec()) for name, spec, _ in CHARPOLY_FACTORS}
    _, rem = polys["charpoly-w-9th"].divmod(W_FACTORS[-1][0])  # the tiling cubic
    return [
        CheckResult(name, polys[name] == expand(factors), factored_str(factors),
                    polys[name].descending())
        for name, _, factors in CHARPOLY_FACTORS
    ] + [
        CheckResult("tiling-poly-divides-walk-poly", not rem, IntPoly([]), rem),
    ]


def composed_form_check(w, upto):
    """The composed form: the reversed factors of W_FACTORS, applied to w
    one after another (w(n)+w(n-1), then y(n)-3y(n-1)+y(n-2), ...), leave 0
    at every n = 9..upto."""
    if len(w) <= upto:
        raise ValueError("w table too short for requested range")
    op = expand((IntPoly(p.coeffs[::-1]), k) for p, k in W_FACTORS)
    return relation_check("w-composed-form", op.degree, upto, 0, {"w": op.coeffs}, {"w": w})
