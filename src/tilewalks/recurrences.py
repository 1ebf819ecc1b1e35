"""Exact linear-recurrence evaluation and the named sequence systems.

Every relation is one row format: a polynomial in the backward shift x per
sequence, {sequence: coefficients by shift}, each coefficient an int or
the tuple of a polynomial's ascending coefficients in n. Integer
arithmetic only, on `int` or on integer-valued `Decimal`.

* CoupledSystemSpec - each member is a row read as lead(n) member(n) =
  sum_s P_s(x) s(n), listed so that a same-step reference names an earlier
  member (d before c before r). A row may be P-recursive (Stanley,
  "Differentiably finite power series", 1980): a coefficient may be a
  polynomial in n, and the lead, 1 by default, a polynomial in n that
  divides the row's sum exactly, as in the v theorem. The coupled 2xn
  systems and the one-member specs of fib, v, w and w-domino are all
  systems. Each system's step is built once per structure to straight-line
  additions that share sums between rows (`_plan`), as the brute column
  step is (`walks._column_step`), in a loop that yields the members a
  caller reads one row at a time: `eval_system` collects the rows into
  `int` tables, and `decimal_columns` streams them from `Decimal` seeds in
  a context that traps any rounding, so that `seq` prints each row as it
  is made.
* The paper's linear relations between shifted sequences (the intermediate
  identities, relations A and B, the v theorem moved to one side) are rows
  that sum to zero, and one `relation_check` applies any row to the
  sequence tables: `theorem_step_check` applies the v theorem's to a v
  table that no division built. It sums one column per term row by row.
* Every check returns a `CheckResult` under the name a report shows, and
  `agreement_check` compares whole tables. Range checks pass whole columns
  at once and scan per n only to locate the first failure.
"""

from contextvars import copy_context
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, DivisionByZero, Inexact,
                     InvalidOperation, Overflow, Rounded, setcontext)
from functools import lru_cache, partial
from itertools import combinations
from operator import eq
from typing import NamedTuple

from .errors import CheckResult, NonIntegralStep, UnstratifiableSystem, _check


class SequenceTable(tuple):
    """A sequence's values by index; the benchmark's tracer reads `values`."""

    values = property(lambda self: self)


class CoupledSystemSpec(NamedTuple):
    """lead(n) member(n) = sum_s P_s(x) s(n) for n >= len(initial[member]):
    equations[member] maps each sequence s to the coefficients of P_s by
    backward shift, x^0 a same-step reference, each an int or the tuple of
    a polynomial's ascending coefficients in n, as is leads[member], or 1."""

    name: str
    equations: dict
    initial: dict
    leads: dict = {}


def eval_recurrence(spec, upto):
    """The `int` table of the one-member system `spec` to index `upto`."""
    return SequenceTable(v for v, in _columns(spec, upto, None))


@lru_cache(maxsize=None)
def _compile_loop(source):
    """The function `run` that `source` defines, compiled on first use."""
    namespace = {"NonIntegralStep": NonIntegralStep}
    exec(source, namespace)
    return namespace["run"]


def _in_n(coeffs):
    """The source of the polynomial in n of ascending `coeffs`: (2, 1) is 2 + n."""
    return " + ".join(" * ".join([str(c)] * (c != 1 or not j) + ["n"] * j)
                      for j, c in enumerate(coeffs) if c)


def _sum(terms):
    """The source of the sum of `terms`, {(k, i): coefficient} reading s<i>_k,
    each coefficient but +1 and -1 multiplied once: 2 * (s0_1 - s0_2)."""
    groups = {}
    for (k, i), c in terms.items():
        negative = not isinstance(c, tuple) and c < 0
        groups.setdefault(-c if negative else c, []).append(("-+"[not negative], f"s{i}_{k}"))
    source = "".join(f" {sign} {local}" for sign, local in groups.pop(1, ()))
    for c, ((lead, local), *rest) in groups.items():
        inner = local + "".join(f" {'+' if sign == lead else '-'} {other}" for sign, other in rest)
        scale = f"({_in_n(c)})" if isinstance(c, tuple) else c
        source += f" {lead} {scale} * " + (f"({inner})" if rest else inner)
    return ("0" + source).removeprefix("0 + ")


@lru_cache(maxsize=None)
def _plan(name, equations, leads, first, keep):
    """The loop source of a system structure, built on first use, its shared
    sums (a, b, d, sign) and the (value, shift) of each state entry. In
    run(rows, steps, state), s<i>_k holds value i at n - k: member i, or
    past the members a shared sum. Each step assigns every s<i>_0 once, the
    `_sum` of its row over the member's lead, an exact division or a
    `NonIntegralStep` naming n, as is a lead that is 0 at n. While a pair of
    +1/-1 terms a(n - k) + sign b(n - k - d) occurs in two or more member
    rows, the most frequent is named a shared sum a(n) + sign b(n - d), read
    at each row's k and assigned right after its last same-step input. The
    step yields the kept members, then rotates each history, as deep as the
    largest shift read, by one tuple assignment. Rows read at the same step
    only earlier members, and no shift reaches back past index 0.
    """
    index, leads, rows = {s: i for i, (s, _) in enumerate(equations)}, dict(leads), []
    for s, row in equations:
        terms = {}
        for t, coeffs in row:
            for k, c in enumerate(coeffs):
                polynomial = isinstance(c, tuple)
                if not (any(c) if polynomial else c):
                    continue
                if k == 0 and index.get(t, len(index)) >= index[s]:
                    raise UnstratifiableSystem(f"system {name!r}: {s!r} refers to {t!r} "
                                               "at the same step before it is filled in")
                if k > first:
                    raise ValueError(f"system {name!r}: {s!r} reads {t!r} {k} steps "
                                     f"back from n = {first}, before index 0")
                terms[k, index[t]] = c
        rows.append(terms)
    shared, order = (), list(index.values())
    while True:
        pairs = {}  # (a, b, d, sign): {member row: its first (term of a, term of b)}
        for j, terms in enumerate(rows[:len(index)]):
            for a, b in combinations(sorted(t for t, c in terms.items() if c in (1, -1)), 2):
                pair = (a[1], b[1], b[0] - a[0], terms[a] * terms[b])
                pairs.setdefault(pair, {}).setdefault(j, (a, b))
        pair, found = max(pairs.items(), key=lambda item: len(item[1]), default=(None, {}))
        if len(found) < 2:
            break
        for j, (a, b) in found.items():
            del rows[j][b]
            rows[j][a[0], len(rows)] = rows[j].pop(a)
        order.insert(1 + max(map(order.index, pair[:1] if pair[2] else pair[:2])), len(rows))
        rows.append({(0, pair[0]): 1, (pair[2], pair[1]): pair[3]})
        shared += (pair,)
    depth = [max([0] + [k for t in rows for k, j in t if j == i]) for i in range(len(rows))]
    body = ""
    for i in order:
        value, s = _sum(rows[i]), i < len(index) and equations[i][0]
        if s in leads:
            lead, member = _in_n(leads[s]), f"system {name!r}: {s!r}"
            zero = f"{member} has a zero lead at n = "
            failure = f"{member} is not an integer at n = "
            body += (f"        if not {lead}:\n"
                     f"            raise NonIntegralStep({zero!r} + str(n))\n"
                     f"        s{i}_0, rem = divmod({value}, {lead})\n"
                     f"        if rem:\n            raise NonIntegralStep({failure!r} + str(n))\n")
        else:
            body += f"        s{i}_0 = {value}\n"
    body += f"        yield ({''.join(f's{index[s]}_0, ' for s in keep)})\n"
    history = [[f"s{i}_{k}" for k in range(d + 1)] for i, d in enumerate(depth) if d]
    body += "".join(f"        {', '.join(h[:0:-1])} = {', '.join(h[-2::-1])}\n" for h in history)
    state = "".join(f"{local}, " for h in history for local in h[1:])
    source = ("def run(rows, steps, state):\n    yield from rows\n"
              + f"    {state}= state\n" * bool(state)
              + "    for n in steps:\n" + body)
    return source, shared, tuple((i, k) for i, d in enumerate(depth) for k in range(1, d + 1))


def _columns(spec, upto, members):
    """The rows of `members` (every member, in equation order, when None):
    one tuple of their values for each n = 0..upto, checked at once and made
    as they are read, past the initial values by the loop of `_plan`."""
    keep = tuple(spec.equations) if members is None else tuple(members)
    for s in keep:
        if s not in spec.equations:
            raise ValueError(f"system {spec.name!r} has no member {s!r}")
    counts = {len(spec.initial[s]) for s in spec.equations}
    if len(counts) != 1:
        raise ValueError(f"system {spec.name!r}: its members have different numbers "
                         "of initial values")
    [first] = counts
    equations = tuple((s, tuple(row.items())) for s, row in spec.equations.items())
    source, shared, slots = _plan(spec.name, equations, tuple(spec.leads.items()), first, keep)
    rows = [tuple(spec.initial[s][n] for s in keep) for n in range(min(first, upto + 1))]
    if upto < first:
        return iter(rows)
    values = [spec.initial[s] for s in spec.equations]
    for a, b, d, sign in shared:  # 0 where a sum would read before index 0: never read
        values.append([0] * d + [values[a][m] + sign * values[b][m - d] for m in range(d, first)])
    return _compile_loop(source)(rows, range(first, upto + 1),
                                 [values[i][first - k] for i, k in slots])


def eval_system(spec, upto, members=None):
    """The `int` tables of `members` (every member when None) to index `upto`."""
    keep = spec.equations if members is None else members
    columns = list(zip(*_columns(spec, upto, members))) or [()] * len(keep)
    return {s: SequenceTable(column) for s, column in zip(keep, columns)}


# The context of the base-10 runs: integers of any size, and an error where a
# result would be rounded, inexactly or by dropping trailing zeros into an
# exponent that str() would print.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])


def decimal_columns(spec, upto, members):
    """The rows of `_columns` as `Decimal`s, from the same steps over
    `Decimal` seeds in the `EXACT` context: each value equals the integer,
    and str() of it takes time linear in its digits where str() of an `int`
    takes quadratic time. The checks run at once, as in `_columns`. Each
    row is made in the stream's own `contextvars` context, whose decimal
    context is a copy of `EXACT`, so that the caller's holds between rows
    and after an error, however the rows are read, interleaved or left."""
    seeds = spec._replace(initial={s: tuple(map(Decimal, v)) for s, v in spec.initial.items()})
    run = copy_context().run
    run(setcontext, EXACT.copy())
    rows = run(_columns, seeds, upto, members)  # a shared sum's first values are sums too
    return iter(partial(run, next, rows, None), None)


# ---------------------------------------------------------------------------
# Named specs and systems


def fibonacci_spec():
    return CoupledSystemSpec("fib", {"fib": {"fib": (0, 1, 1)}}, {"fib": (0, 1)})


def tiling_system():
    """Coupled counts of full and truncated 2xn tilings (r, a, c, d)."""
    eq = {
        "d": {"r": (0, 0, 1)},
        "a": {"c": (0, 1)},
        "c": {"r": (0, 1), "a": (0, 1), "d": (1,)},
        "r": {"r": (0, 1), "a": (1,), "c": (1,), "d": (1,)},
    }
    init = {"r": (1, 2), "a": (0, 0), "c": (0, 1), "d": (0, 0)}
    return CoupledSystemSpec("tiling", eq, init)


def walk_system():
    """Twelve coupled equations: walk counts per ending grid line, by shape.

    Members r2/r1 count walks on full boards ending on line 2/1. a1, c1, d1
    and c2, d2 count the walks on shapes A, C, D that end at (n, 1) and
    (n, 2), a2 those that end at (n - 1, 2), the rightmost vertex of each
    region on its line, where a walk uses only the edges that bound a
    present cell or lie on x = 0. The four tiling sequences ride along
    because the walk equations reference them.
    """
    eq = dict(tiling_system().equations)
    eq.update({
        "d2": {"r2": (0, 0, 1), "r1": (0, 0, 1)},
        "d1": {"r1": (0, 0, 1)},
        "a2": {"c2": (0, 1)},
        "a1": {"c1": (0, 1), "c": (0, 1)},
        "c2": {"r2": (0, 1), "r1": (0, 1), "a2": (0, 1), "a1": (0, 1), "d2": (1,), "d": (1,)},
        "c1": {"r1": (0, 1), "a1": (0, 1), "d1": (1,), "d": (1,)},
        "r2": {"r2": (0, 1), "r": (0, 1), "a2": (1,), "a1": (1,), "c2": (1,), "c": (1,),
               "d2": (1,), "d": (1,)},
        "r1": {"r": (0, 1), "a1": (1,), "c1": (1,), "c": (1,), "d1": (1,), "d": (1,)},
    })
    init = dict(tiling_system().initial)
    init.update({"r2": (1, 5), "r1": (1, 3), "a2": (0, 0), "a1": (0, 0),
                 "c2": (0, 2), "c1": (0, 1), "d2": (0, 0), "d1": (0, 0)})
    return CoupledSystemSpec("walk", eq, init)


def domino_only_system():
    """Walk counts when tilings use dominoes exclusively."""
    eq = {
        "r": {"r": (0, 1, 1)},
        "r1": {"r1": (0, 0, 1), "r": (1,)},
        "r2": {"r2": (0, 1, 1), "r1": (0, 0, 1), "r": (1,)},
    }
    init = {"r": (1, 1), "r1": (1, 1), "r2": (1, 2)}
    return CoupledSystemSpec("domino-only", eq, init)


def v_theorem_spec():
    """n*v(n) = (n+1)v(n-1) + (n+2)v(n-2)."""
    return CoupledSystemSpec("v-poly", {"v": {"v": (0, (1, 1), (2, 1))}}, {"v": (1, 2)},
                             leads={"v": (0, 1)})


def v_fourth_order_spec():
    """v(n) = 2v(n-1) + v(n-2) - 2v(n-3) - v(n-4)."""
    return CoupledSystemSpec("v-const", {"v": {"v": (0, 2, 1, -2, -1)}}, {"v": (1, 2, 5, 10)})


def v_inhomogeneous_system():
    """v(n) = v(n-1) + v(n-2) + F(n+1), with the shifted Fibonacci as a member."""
    eq = {
        "g": {"g": (0, 1, 1)},  # g(n) = F(n+1)
        "v": {"v": (0, 1, 1), "g": (1,)},
    }
    init = {"g": (1, 1), "v": (1, 2)}
    return CoupledSystemSpec("v-inhomogeneous", eq, init)


def w_ninth_order_spec():
    """The 9th-order recurrence for walk totals with squares and dominoes."""
    return CoupledSystemSpec(
        "w", {"w": {"w": (0, 8, -17, -7, 41, 1, -23, 3, 4, -1)}},
        {"w": (1, 5, 28, 130, 569, 2352, 9363, 36183, 136663)})


def domino_only_recurrence():
    """The 6th-order recurrence for walk totals on dominoes-only tilings."""
    return CoupledSystemSpec("w-domino", {"w-domino": {"w-domino": (0, 2, 2, -4, -2, 2, 1)}},
                             {"w-domino": (1, 2, 6, 12, 26, 50)})


def agreement_check(name, *tables):
    """The tables agree entry by entry. Equal tables pass in one pass over
    each; otherwise the first index where two of them differ, or where one
    of them has ended, is the failure."""
    first = tables[0]
    if all(len(t) == len(first) and all(map(eq, t, first)) for t in tables[1:]):
        return CheckResult(name, True)

    def agree(n):
        return all(n < len(t) and t[n] == first[n] for t in tables)

    return _check(name, 0, max(len(t) for t in tables) - 1, agree)


# The paper's relations A and B as coefficients by shift: L sides apply to
# the walk totals r2, R sides to the truncated totals c2, and relation X
# reads L_X(n) = R_X(n+1).
RELATIONS = {
    "L_A": (2, -1, -6, 1, 6, 2),
    "R_A": (1, -1, 0, 5, 0, -4, -1),
    "L_B": (2, -6, -7, 14, 14, -2, -3),
    "R_B": (1, -3, -2, 6, -3, -9, 0, 2),
}


# The intermediate identities of the 2xn derivation as rows (check name,
# first n, lead, {sequence: coefficients by shift}): each row reads
# sum_s P_s(x) seq_s at n + lead = 0, x being the backward shift, so lead 1
# marks an identity that reads c(n+1).
IDENTITIES = (
    ("reduced-rc-1", 2, 0, {"r": (1, -1, -1), "c": (-1, -1)}),
    ("reduced-rc-2", 2, 0, {"c": (1, 0, -1), "r": (0, -1, -1)}),
    ("r-equals-c-difference", 0, 1, {"r": (0, 1), "c": (-1, 1)}),
    ("c-third-order", 3, 0, {"c": (1, -3, -1, 1)}),
    ("line1-from-line2-r", 2, 0, {"r1": (1,), "r2": (-1, 2, 2), "c2": (0, 1, 1)}),
    ("line1-from-line2-c", 2, 0, {"c1": (1,), "c2": (-1, 0, 1), "r2": (0, 1, 1)}),
    ("line2-reduced-r", 4, 0,
     {"r2": (1, -1, -1, 3, 2), "c2": (-1, -2, 0, 2, 1), "r": (-1,)}),
    ("line2-reduced-c", 4, 0,
     {"c2": (1, 0, -1, 2, 2), "r2": (0, -2, 0, 5, 3), "r": (0, 0, -1), "c": (0, 0, -1)}),
    ("line2-no-tiling-r", 4, 1,
     {"r2": (0, 1, -1, -1, 3, 2), "c2": (0, -1, -2, 0, 2, 1), "c": (-1, 1)}),
    ("line2-no-tiling-c", 4, 0,
     {"c2": (1, 0, -1, 2, 2), "r2": (0, -2, 0, 5, 3), "c": (0, -1)}),
)


def relation_check(name, first, upto, lead, ops, tables):
    """Check sum_s P_s(x) tables[s] at m = n + lead is 0 for n = first..upto:
    ops maps each s to P_s's coefficients by shift, x^k reading tables[s][m - k],
    each an int or a polynomial in m as in `CoupledSystemSpec`. A row that
    would read before index 0 is refused before any n is checked."""
    terms = [(j, k, a, tables[s]) for s, coeffs in ops.items() for k, c in enumerate(coeffs)
             for j, a in enumerate(c if isinstance(c, tuple) else (c,)) if a]
    reach = max((k for _, k, _, _ in terms), default=0)
    if first + lead < reach:
        raise ValueError(f"{name}: a shift of {reach} at n = {first + lead} reads before index 0")
    lo, hi = first + lead, upto + lead + 1
    stop = max(lo, min([hi, *(len(seq) + k for _, k, _, seq in terms)]))  # rows in the tables
    cols = [seq[lo - k:stop - k] if (j, a) == (0, 1) else
            [a * m**j * seq[m - k] for m in range(lo, stop)] for j, k, a, seq in terms]
    for n, total in enumerate(map(sum, zip(*cols)), first):
        if total:
            return CheckResult(name, False, first_failure=n)
    return _check(name, stop - lead, upto, lambda n: sum(  # past a table's end: IndexError
        a * (n + lead)**j * seq[n + lead - k] for j, k, a, seq in terms) == 0)


def theorem_step_check(v, upto):
    """The row of `v_theorem_spec` moved to one side, n v(n) - (n+1) v(n-1)
    - (n+2) v(n-2), is 0 on a v table built another way for n = 2..upto."""
    spec = v_theorem_spec()
    _, *row = spec.equations["v"]["v"]
    ops = {"v": (spec.leads["v"], *(tuple(-c for c in p) for p in row))}
    return relation_check("v-polynomial-step-divisibility", len(spec.initial["v"]), upto, 0,
                          ops, {"v": v})


def verify_intermediate_identities(upto):
    """Numeric verification of every intermediate identity of the 2xn derivation."""
    named = {s for *_, ops in IDENTITIES for s in ops}
    t = eval_system(walk_system(), upto + 1, named)
    return [relation_check(f"identity:{name}", first, upto, lead, ops, t)
            for name, first, lead, ops in IDENTITIES]
