"""Exact linear-recurrence evaluation and the named sequence systems.

Two evaluator shapes cover everything, in integer arithmetic only:

* RecurrenceSpec - a single sequence, coefficients may be integer polynomials in n
  (the tiling-walking sequence v obeys n*v(n) = (n+1)v(n-1) + (n+2)v(n-2)).
* CoupledSystemSpec - mutually recursive integer-linear sequences with
  same-step references resolved by stratification (d before c before r).
"""

from dataclasses import dataclass, field

from .errors import NonIntegralStep, UnstratifiableSystem


def poly_eval(coeffs, n):
    """Evaluate an integer polynomial given ascending coefficients (Horner)."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


@dataclass(frozen=True)
class RecurrenceSpec:
    """lhs_coeff(n) * x(n) = sum_k coeffs[k](n) * x(n-1-k), n >= |initial|.

    Each coefficient is a tuple of ascending integer polynomial
    coefficients; constants are degree 0.
    """

    order: int
    coeffs: tuple
    initial: tuple
    lhs_coeff: tuple = (1,)
    name: str = ""

    def __post_init__(self):
        if self.order < 1 or len(self.coeffs) != self.order:
            raise ValueError("order and coefficient count disagree")
        if len(self.initial) < self.order:
            raise ValueError("need at least `order` initial values")


@dataclass(frozen=True)
class SequenceTable:
    name: str
    values: tuple

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class Term:
    """coeff * seq(n - shift); shift 0 means a same-step reference."""

    coeff: int
    seq: str
    shift: int


@dataclass(frozen=True)
class CoupledSystemSpec:
    name: str
    equations: dict
    initial: dict

    def stratify(self):
        """Dependency order for same-step references; error on a cycle."""
        order = []
        mark = {}

        def visit(s):
            if mark.get(s) == 1:
                raise UnstratifiableSystem(
                    f"system {self.name!r}: same-step cycle through {s!r}"
                )
            if mark.get(s) == 2:
                return
            mark[s] = 1
            for t in self.equations[s]:
                if t.shift == 0:
                    visit(t.seq)
            mark[s] = 2
            order.append(s)

        for s in self.equations:
            visit(s)
        return order


def eval_recurrence(spec, upto):
    """Fill a SequenceTable to index `upto`, checking every division is exact."""
    vals = list(spec.initial[: upto + 1])
    for n in range(len(vals), upto + 1):
        num = sum(poly_eval(c, n) * vals[n - 1 - k] for k, c in enumerate(spec.coeffs))
        lhs = poly_eval(spec.lhs_coeff, n)
        if lhs == 0:
            raise NonIntegralStep(f"{spec.name}: zero lhs coefficient at n={n}")
        x, rem = divmod(num, lhs)
        if rem:
            raise NonIntegralStep(f"{spec.name}: non-integral value {num}/{lhs} at n={n}")
        vals.append(x)
    return SequenceTable(spec.name, tuple(vals))


def eval_system(spec, upto):
    """Fill every member table to index `upto`, in stratified order per step."""
    order = spec.stratify()
    start = min(len(v) for v in spec.initial.values())
    tables = {s: list(spec.initial[s]) for s in spec.equations}
    for n in range(start, upto + 1):
        for s in order:
            if n < len(spec.initial[s]):
                continue
            val = 0
            for t in spec.equations[s]:
                val += t.coeff * tables[t.seq][n - t.shift]
            tables[s].append(val)
    return {s: SequenceTable(s, tuple(v[: upto + 1])) for s, v in tables.items()}


# ---------------------------------------------------------------------------
# Named specs and systems


def fibonacci_spec():
    return RecurrenceSpec(
        order=2,
        coeffs=((1,), (1,)),
        initial=(0, 1),
        name="fib",
    )


def tiling_system():
    """Coupled counts of full and truncated 2xn tilings (r, a, c, d)."""
    eq = {
        "d": (Term(1, "r", 2),),
        "a": (Term(1, "c", 1),),
        "c": (Term(1, "r", 1), Term(1, "a", 1), Term(1, "d", 0)),
        "r": (Term(1, "r", 1), Term(1, "a", 0), Term(1, "c", 0), Term(1, "d", 0)),
    }
    init = {"r": (1, 2), "a": (0, 0), "c": (0, 1), "d": (0, 0)}
    return CoupledSystemSpec("tiling", eq, init)


def walk_system():
    """Twelve coupled equations: walk counts per ending grid line, by shape.

    Members r2/r1 etc. are walks on full boards ending on line 2/1; a2, c2,
    d2 and a1, c1, d1 are the truncated-shape analogues. The four tiling
    sequences ride along because the walk equations reference them.
    """
    eq = dict(tiling_system().equations)
    eq.update(
        {
            "d2": (Term(1, "r2", 2), Term(1, "r1", 2)),
            "d1": (Term(1, "r1", 2),),
            "a2": (Term(1, "c2", 1),),
            "a1": (Term(1, "c1", 1), Term(1, "c", 1)),
            "c2": (
                Term(1, "r2", 1),
                Term(1, "r1", 1),
                Term(1, "a2", 1),
                Term(1, "a1", 1),
                Term(1, "d2", 0),
                Term(1, "d", 0),
            ),
            "c1": (
                Term(1, "r1", 1),
                Term(1, "a1", 1),
                Term(1, "d1", 0),
                Term(1, "d", 0),
            ),
            "r2": (
                Term(1, "r2", 1),
                Term(1, "r", 1),
                Term(1, "a2", 0),
                Term(1, "a1", 0),
                Term(1, "c2", 0),
                Term(1, "c", 0),
                Term(1, "d2", 0),
                Term(1, "d", 0),
            ),
            "r1": (
                Term(1, "r", 1),
                Term(1, "a1", 0),
                Term(1, "c1", 0),
                Term(1, "c", 0),
                Term(1, "d1", 0),
                Term(1, "d", 0),
            ),
        }
    )
    init = dict(tiling_system().initial)
    init.update(
        {
            "r2": (1, 5),
            "r1": (1, 3),
            "a2": (0, 0),
            "a1": (0, 0),
            "c2": (0, 2),
            "c1": (0, 1),
            "d2": (0, 0),
            "d1": (0, 0),
        }
    )
    return CoupledSystemSpec("walk", eq, init)


def domino_only_system():
    """Walk counts when tilings use dominoes exclusively."""
    eq = {
        "r": (Term(1, "r", 1), Term(1, "r", 2)),
        "r1": (Term(1, "r1", 2), Term(1, "r", 0)),
        "r2": (Term(1, "r2", 1), Term(1, "r2", 2), Term(1, "r1", 2), Term(1, "r", 0)),
    }
    init = {"r": (1, 1), "r1": (1, 1), "r2": (1, 2)}
    return CoupledSystemSpec("domino-only", eq, init)


def v_theorem_spec():
    """n*v(n) = (n+1)v(n-1) + (n+2)v(n-2)."""
    return RecurrenceSpec(
        order=2,
        coeffs=((1, 1), (2, 1)),
        lhs_coeff=(0, 1),
        initial=(1, 2),
        name="v-poly",
    )


def v_fourth_order_spec():
    """v(n) = 2v(n-1) + v(n-2) - 2v(n-3) - v(n-4)."""
    return RecurrenceSpec(
        order=4,
        coeffs=tuple((c,) for c in (2, 1, -2, -1)),
        initial=(1, 2, 5, 10),
        name="v-const",
    )


def v_inhomogeneous_system():
    """v(n) = v(n-1) + v(n-2) + F(n+1), with the shifted Fibonacci as a member."""
    eq = {
        "g": (Term(1, "g", 1), Term(1, "g", 2)),  # g(n) = F(n+1)
        "v": (Term(1, "v", 1), Term(1, "v", 2), Term(1, "g", 0)),
    }
    init = {"g": (1, 1), "v": (1, 2)}
    return CoupledSystemSpec("v-inhomogeneous", eq, init)


def v_closed_recurrences():
    """The three equivalent routes to v; callers cross-check their outputs."""
    return v_theorem_spec(), v_fourth_order_spec(), v_inhomogeneous_system()


def eval_v_route(route, upto):
    if isinstance(route, CoupledSystemSpec):
        return eval_system(route, upto)["v"]
    return eval_recurrence(route, upto)


def w_ninth_order_spec():
    """The 9th-order recurrence for walk totals with squares and dominoes."""
    return RecurrenceSpec(
        order=9,
        coeffs=tuple((c,) for c in (8, -17, -7, 41, 1, -23, 3, 4, -1)),
        initial=(1, 5, 28, 130, 569, 2352, 9363, 36183, 136663),
        name="w",
    )


def domino_only_recurrence():
    """The 6th-order recurrence for walk totals on dominoes-only tilings."""
    return RecurrenceSpec(
        order=6,
        coeffs=tuple((c,) for c in (2, 2, -4, -2, 2, 1)),
        initial=(1, 2, 6, 12, 26, 50),
        name="w-domino",
    )


def composed_form_check(w, upto):
    """Telescoping check: y = w(n)+w(n-1), x = y(n)-3y(n-1)+y(n-2),
    rt = x(n)-3x(n-1)-x(n-2)+x(n-3) must obey rt(n)=3rt(n-1)+rt(n-2)-rt(n-3).
    """
    w = list(w.values if isinstance(w, SequenceTable) else w)
    if len(w) <= upto:
        raise ValueError("w table too short for requested range")
    y = {n: w[n] + w[n - 1] for n in range(1, upto + 1)}
    x = {n: y[n] - 3 * y[n - 1] + y[n - 2] for n in range(3, upto + 1)}
    rt = {n: x[n] - 3 * x[n - 1] - x[n - 2] + x[n - 3] for n in range(6, upto + 1)}
    return all(
        rt[n] == 3 * rt[n - 1] + rt[n - 2] - rt[n - 3] for n in range(9, upto + 1)
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    first_failure: int = None


def _check(name, lo, hi, pred):
    for n in range(lo, hi + 1):
        if not pred(n):
            return CheckResult(name, False, f"failed at n={n}", n)
    return CheckResult(name, True, f"checked n={lo}..{hi}")


# The paper's relations A and B as coefficients by shift: L sides apply to
# the walk totals r2, R sides to the truncated totals c2, and relation X
# reads L_X(n) = R_X(n+1).
RELATIONS = {
    "L_A": (2, -1, -6, 1, 6, 2),
    "R_A": (1, -1, 0, 5, 0, -4, -1),
    "L_B": (2, -6, -7, 14, 14, -2, -3),
    "R_B": (1, -3, -2, 6, -3, -9, 0, 2),
}


def relation_side(name, tables, n):
    """sum_k RELATIONS[name][k] * seq(n - k), seq being r2 or c2 of `tables`."""
    seq = tables["r2" if name.startswith("L") else "c2"]
    return sum(c * seq[n - k] for k, c in enumerate(RELATIONS[name]))


def verify_intermediate_identities(upto):
    """Numeric verification of every intermediate identity of the 2xn derivation."""
    t = eval_system(walk_system(), upto + 1)
    r, c = t["r"], t["c"]
    r2, r1, c2, c1 = t["r2"], t["r1"], t["c2"], t["c1"]

    checks = [
        _check("reduced-rc-1", 2, upto,
               lambda n: r[n] == r[n - 1] + r[n - 2] + c[n] + c[n - 1]),
        _check("reduced-rc-2", 2, upto,
               lambda n: c[n] == r[n - 1] + r[n - 2] + c[n - 2]),
        _check("r-equals-c-difference", 0, upto,
               lambda n: r[n] == c[n + 1] - c[n]),
        _check("c-third-order", 3, upto,
               lambda n: c[n] == 3 * c[n - 1] + c[n - 2] - c[n - 3]),
        _check("line1-from-line2-r", 2, upto,
               lambda n: r1[n] == r2[n] - 2 * r2[n - 1] - 2 * r2[n - 2]
               - c2[n - 1] - c2[n - 2]),
        _check("line1-from-line2-c", 2, upto,
               lambda n: c1[n] == c2[n] - r2[n - 1] - r2[n - 2] - c2[n - 2]),
        _check("line2-reduced-r", 4, upto,
               lambda n: r2[n] == r2[n - 1] + r2[n - 2] - 3 * r2[n - 3]
               - 2 * r2[n - 4] + c2[n] + 2 * c2[n - 1] - 2 * c2[n - 3]
               - c2[n - 4] + r[n]),
        _check("line2-reduced-c", 4, upto,
               lambda n: c2[n] == 2 * r2[n - 1] - 5 * r2[n - 3] - 3 * r2[n - 4]
               + c2[n - 2] - 2 * c2[n - 3] - 2 * c2[n - 4] + r[n - 2] + c[n - 2]),
        _check("line2-no-tiling-r", 4, upto,
               lambda n: r2[n] == r2[n - 1] + r2[n - 2] - 3 * r2[n - 3]
               - 2 * r2[n - 4] + c2[n] + 2 * c2[n - 1] - 2 * c2[n - 3]
               - c2[n - 4] + c[n + 1] - c[n]),
        _check("line2-no-tiling-c", 4, upto,
               lambda n: c2[n] == 2 * r2[n - 1] - 5 * r2[n - 3] - 3 * r2[n - 4]
               + c2[n - 2] - 2 * c2[n - 3] - 2 * c2[n - 4] + c[n - 1]),
        _check("combination-A", 5, upto - 1, lambda n:
               relation_side("L_A", t, n) == relation_side("R_A", t, n + 1)),
        _check("combination-B", 6, upto - 1, lambda n:
               relation_side("L_B", t, n) == relation_side("R_B", t, n + 1)),
    ]
    return checks
