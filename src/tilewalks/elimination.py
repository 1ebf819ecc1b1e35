"""Exact linear algebra reproducing the shift-vector elimination.

The 12-dimensional basis is c2(n+1), c2(n), ..., c2(n-10). Two families of
coordinate vectors (the right-hand sides of relations A and B) are combined
so their difference vanishes; the kernel of the resulting 12x11 matrix
pins down the weights and, through the left-hand sides, the 9th-order
recurrence for the walk totals.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import index

from .polynomials import IntPoly, charpoly_of_recurrence
from .recurrences import (
    RELATIONS,
    CheckResult,
    _check,
    domino_only_recurrence,
    eval_system,
    relation_side,
    w_ninth_order_spec,
    walk_system,
)

DIM = 12

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

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def mul_vector(self, v):
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) for row in self.entries)


def shift_vector(vec, k):
    """Shift a coordinate vector right by k positions (one per index shift),
    zero-padded or cut to the 12-dimensional window."""
    if k < 0 or k >= DIM:
        raise ValueError("shift outside the 12-dimensional window")
    return ((0,) * k + tuple(vec) + (0,) * DIM)[:DIM]


# the unshifted combination vectors: the R sides of the relation table
R_A = shift_vector(RELATIONS["R_A"], 0)
R_B = shift_vector(RELATIONS["R_B"], 0)


# The weighted R sides cancel as polynomials in the shift x, and the
# weighted L sides leave x times the ten-term relation: its coefficients
# apply to r2(n-1), r2(n-2), ..., r2(n-10) and sum to zero.
TEN_TERM_RELATION = (
    IntPoly(ALPHA_WEIGHTS) * IntPoly(RELATIONS["L_A"])
    - IntPoly(BETA_WEIGHTS) * IntPoly(RELATIONS["L_B"])
).coeffs[1:]


def build_shift_vectors():
    """The six shifted A-vectors and five shifted B-vectors."""
    ra = [shift_vector(R_A, k) for k in range(6)]
    rb = [shift_vector(R_B, k) for k in range(5)]
    return ra, rb


def build_matrix_m():
    """12x11 matrix whose kernel carries the combination weights.

    Columns 1..6 are the shifted A-vectors, columns 7..11 the negated
    shifted B-vectors (the B-sum enters the vector equation with a minus).
    """
    ra, rb = build_shift_vectors()
    cols = ra + [tuple(-x for x in v) for v in rb]
    rows = [[cols[j][i] for j in range(11)] for i in range(DIM)]
    return RatMatrix.from_rows(rows)


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


def _weighted(side, weights, tables, n):
    return sum(w * relation_side(side, tables, n - j) for j, w in enumerate(weights))


def verify_la_lb_combination(upto, tables=None):
    """Numeric checks of the two relations, their weighted combination, and
    the ten-term relation they imply for the walk totals."""
    if upto < 12:
        raise ValueError("need upto >= 12 to cover every shift")
    if tables is None:
        tables = eval_system(walk_system(), upto + 1)
    r2 = tables["r2"]
    return [
        _check("relation-A", 5, upto - 1, lambda n: relation_side(
            "L_A", tables, n) == relation_side("R_A", tables, n + 1)),
        _check("relation-B", 6, upto - 1, lambda n: relation_side(
            "L_B", tables, n) == relation_side("R_B", tables, n + 1)),
        _check("weighted-R-sides", 11, upto - 1, lambda n: _weighted(
            "R_A", ALPHA_WEIGHTS, tables, n + 1) == _weighted(
            "R_B", BETA_WEIGHTS, tables, n + 1)),
        _check("weighted-L-sides", 10, upto, lambda n: _weighted(
            "L_A", ALPHA_WEIGHTS, tables, n) == _weighted(
            "L_B", BETA_WEIGHTS, tables, n)),
        _check("ten-term-relation", 11, upto, lambda n: sum(
            c * r2[n - 1 - j] for j, c in enumerate(TEN_TERM_RELATION)
        ) == 0),
    ]


def charpoly_factorization_check():
    """Expand the printed factorizations and compare with the recurrences."""
    x_plus_1 = IntPoly([1, 1])
    x_minus_1 = IntPoly([-1, 1])
    quad_w = IntPoly([1, -3, 1])       # x^2 - 3x + 1
    cubic_r = IntPoly([1, -1, -3, 1])  # x^3 - 3x^2 - x + 1
    fib_quad = IntPoly([-1, -1, 1])    # x^2 - x - 1

    p_w = charpoly_of_recurrence([c[0] for c in w_ninth_order_spec().coeffs])
    p_w_factored = x_plus_1 * quad_w * cubic_r**2
    p_dom = charpoly_of_recurrence([c[0] for c in domino_only_recurrence().coeffs])
    p_dom_factored = x_minus_1 * x_plus_1 * fib_quad**2
    quot, rem = p_w.divmod(cubic_r)
    return [
        CheckResult("charpoly-w-9th", p_w == p_w_factored,
                    f"{p_w} == (x+1)(x^2-3x+1)(x^3-3x^2-x+1)^2"),
        CheckResult("charpoly-domino-6th", p_dom == p_dom_factored,
                    f"{p_dom} == (x-1)(x+1)(x^2-x-1)^2"),
        CheckResult("tiling-poly-divides-walk-poly", not rem,
                    f"quotient {quot}, remainder {rem}"),
    ]
