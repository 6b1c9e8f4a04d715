"""Exact rational linear programming via a two-phase primal simplex on integer rows.

The one program solved is: maximize c . x subject to linear rows, x >= 0.
`standard_form` negates each `>=` row into a `<=` row and keeps the rest.
The tableau keeps every row, the reduced-cost row included, as Python ints:
a positive multiple of the exact rational row, divided by the gcd of its
entries after each pivot. Ratios are compared by cross-multiplication, and
rationals appear only where the basic values and the dual vector are read
out of the final tableau. Bland's rule (the lowest entering column, and the
lowest basic index among tied ratios) keeps the pivoting finite on
degenerate programs.

Every optimum is certified before it is returned, without trusting the
pivots: the point is checked against x >= 0, the rows and the objective
(primal feasibility), and the dual vector is checked on the standard form:
nonnegative on `<=` rows, u^T A >= c on every column, and u^T b equal to
the claimed value (optimality, by weak duality).

An infeasible program comes with the dual of phase 1 as its certificate, a
Farkas ray on the rows of the standard form (every `>=` row negated):
nonnegative on `<=` rows, u^T A >= 0 on every column and u^T b < 0, so no
x >= 0 meets the rows. Callers that act on the ray re-check what they
derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Optimal:
    """dual: the certified dual on the rows of standard_form(lp), one entry
    per row; it takes no part in equality."""

    value: Fraction
    point: tuple
    dual: tuple = field(default=(), compare=False)


@dataclass(frozen=True)
class Infeasible:
    """ray: the Farkas certificate on the rows of standard_form(lp)."""

    ray: list


class Unbounded:
    def __repr__(self):
        return "Unbounded"


UNBOUNDED = Unbounded()


class LinearProgram:
    """maximize objective . x subject to linear constraints and x >= 0."""

    def __init__(self, num_vars, objective):
        objective = [Fraction(c) for c in objective]
        if len(objective) != num_vars:
            raise ValueError("objective length does not match variable count")
        self.num_vars = num_vars
        self.objective = objective
        self.rows = []

    def add(self, coeffs, rel, rhs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length does not match variable count")
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {rel!r}")
        self.rows.append((coeffs, rel, Fraction(rhs)))


def standard_form(lp):
    """The rows of lp as (coefficients, '<=' or '=', rhs), each '>=' row negated."""
    return [([-c for c in coeffs], "<=", -rhs) if rel == ">=" else (coeffs, rel, rhs)
            for coeffs, rel, rhs in lp.rows]


def _coprime(row):
    g = gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def _integer_row(values):
    """The positive integer multiple of a row of rationals whose entries are coprime."""
    scale = lcm(*(v.denominator for v in values))
    return _coprime([v.numerator * (scale // v.denominator) for v in values])


def _eliminate(row, prow, j):
    """A positive multiple of row minus the multiple of prow that clears column j.

    prow[j] must be positive. Entries of row past the end of prow (the scale
    that closes the reduced-cost row) are only multiplied.
    """
    piv, f = prow[j], row[j]
    new = [piv * a - f * b for a, b in zip(row, prow)]
    new.extend(piv * a for a in row[len(prow):])
    return _coprime(new)


def solve(lp):
    """Solve an LP exactly. Returns Optimal(value, point, dual), Infeasible(ray) or UNBOUNDED."""
    rows = standard_form(lp)
    outcome = _simplex(rows, lp.objective)
    if not isinstance(outcome, tuple):
        return outcome
    y, dual = outcome
    point = y[:lp.num_vars]
    value = sum(c * x for c, x in zip(lp.objective, point))
    _certify(lp, rows, point, value, dual)
    return Optimal(value, tuple(point), tuple(dual))


def _simplex(rows, objective):
    """Two-phase simplex on the standard-form rows: (y, dual), Infeasible(ray) or UNBOUNDED."""
    ncols = len(objective)
    nslack = sum(1 for _, rel, _ in rows if rel == "<=")
    nart = sum(1 for _, rel, rhs in rows if rel == "=" or rhs < 0)
    # Columns: structural | slacks | artificials | rhs. A '<=' row with a
    # nonnegative rhs starts with its slack basic; every other row gets an
    # artificial. dual_col[r] = (column, sign) such that the dual value of
    # row r is -sign * (reduced cost of column).
    real = ncols + nslack
    width = real + nart
    tableau = []
    basis = []
    dual_col = []
    slack = ncols
    art = real
    for dense, rel, rhs in rows:
        row = list(dense) + [ZERO] * (nslack + nart) + [rhs]
        sign = -1 if rhs < 0 else 1
        if rel == "<=":
            row[slack] = ONE
            dual_col.append((slack, 1))
            slack += 1
        if sign < 0:
            row = [-c for c in row]
        if rel == "<=" and sign > 0:
            basis.append(slack - 1)
        else:
            row[art] = ONE
            basis.append(art)
            if rel == "=":
                dual_col.append((art, sign))
            art += 1
        tableau.append(_integer_row(row))

    def pivot(r, j, z=None):
        prow = tableau[r]
        if prow[j] < 0:
            prow = tableau[r] = [-a for a in prow]
        for r2, row in enumerate(tableau):
            if r2 != r and row[j]:
                tableau[r2] = _eliminate(row, prow, j)
        basis[r] = j
        return _eliminate(z, prow, j) if z is not None and z[j] else z

    def objective_row(costs):
        """Reduced costs, then -value, then the positive scale of both."""
        z = _integer_row(list(costs) + [ZERO, ONE])
        for row, b in zip(tableau, basis):
            if z[b]:
                z = _eliminate(z, row, b)
        return z

    def run_simplex(z, candidates):
        """Bland's rule over the first candidates columns; None when unbounded."""
        while True:
            enter = next((j for j in range(candidates) if z[j] > 0), None)
            if enter is None:
                return z
            leave = None
            for r, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    if leave is None:
                        leave, lead = r, row
                        continue
                    mine, best = row[-1] * lead[enter], lead[-1] * a
                    if mine < best or (mine == best and basis[r] < basis[leave]):
                        leave, lead = r, row
            if leave is None:
                return None
            z = pivot(leave, enter, z)

    if nart:
        z = run_simplex(objective_row([ZERO] * real + [-ONE] * nart), width)
        if z[-2]:
            # The phase-1 dual, where artificials cost -1: a row's ray entry is
            # read like its dual below, one scale added on an artificial.
            scale = z[-1]
            return Infeasible([Fraction(-sign * (z[col] + scale if col >= real else z[col]), scale)
                               for col, sign in dual_col])
        # Drive remaining artificials out of the basis or drop redundant rows.
        drop = []
        for r in range(len(tableau)):
            if basis[r] >= real:
                j = next((j for j in range(real) if tableau[r][j]), None)
                if j is None:
                    drop.append(r)
                else:
                    pivot(r, j)
        for r in reversed(drop):
            del tableau[r]
            del basis[r]

    z = run_simplex(objective_row(list(objective) + [ZERO] * (width - ncols)), real)
    if z is None:
        return UNBOUNDED
    y = [ZERO] * width
    for row, b in zip(tableau, basis):
        y[b] = Fraction(row[-1], row[b])
    dual = [Fraction(-sign * z[col], z[-1]) for col, sign in dual_col]
    return y, dual


def _certify(lp, rows, point, value, dual):
    """Exact check of a claimed optimum against lp and the dual on its standard-form rows.

    Raises AssertionError when point has a negative coordinate or breaks a
    row of lp, when value is not its objective, or when dual fails to prove
    that nothing does better: dual must be nonnegative on the '<=' rows,
    cover the objective on every column (u^T A >= c), and have u^T b equal
    to value.
    """
    if any(x < 0 for x in point):
        raise AssertionError("solution has a negative coordinate")
    for coeffs, rel, rhs in lp.rows:
        lhs = sum(c * x for c, x in zip(coeffs, point))
        ok = lhs <= rhs if rel == "<=" else lhs >= rhs if rel == ">=" else lhs == rhs
        if not ok:
            raise AssertionError("solution violates a constraint")
    check = sum(c * x for c, x in zip(lp.objective, point))
    if check != value:
        raise AssertionError("objective value mismatch")
    if len(dual) != len(rows):
        raise AssertionError("dual has the wrong length")
    for u, (_, rel, _) in zip(dual, rows):
        if rel == "<=" and u < 0:
            raise AssertionError("dual is negative on an inequality row")
    for col, c in enumerate(lp.objective):
        if sum(u * dense[col] for u, (dense, _, _) in zip(dual, rows)) < c:
            raise AssertionError("dual does not cover the objective on a column")
    if sum(u * rhs for u, (_, _, rhs) in zip(dual, rows)) != value:
        raise AssertionError("dual value differs from the primal value")
