"""Exact rational linear programming via a two-phase primal simplex on integer rows.

The one program solved is: maximize c . x subject to linear rows, x >= 0.
Int coefficients, objective entries and right-hand sides stay ints; every
other value becomes a Fraction. `standard_form` negates each `>=` row into a
`<=` row and keeps the rest. The tableau keeps every row, the reduced-cost
row included, as Python ints: a positive multiple of the exact rational row,
divided by the gcd of its entries after each pivot. Ratios are compared by
cross-multiplication. The final tableau is read in integers too: the point
as numerators over one common denominator d, the lcm of the basic columns'
pivot entries, and the dual as numerators over the reduced-cost row's scale
e.

The entering column is the one with the largest reduced cost (Dantzig's
rule), the lowest index on ties; the leaving row has the least ratio, the
lowest basic index on ties. On degenerate programs, such as Pearce's LPs
whose gap rows all have rhs 0, the largest reduced cost can cycle. So after
DEGENERATE_RUN consecutive degenerate pivots (the leaving row's rhs is 0)
the entering column becomes the lowest one with a positive reduced cost
(Bland's rule) until the next nondegenerate pivot. The pivoting stays
finite: a nondegenerate pivot raises the objective, so a cycle would be an
unbroken run of degenerate pivots, and Bland's rule ends every such run.

Every optimum is certified before it is returned, without trusting the
pivots, on those int numerators and the standard-form rows, so a program of
ints is certified in integers: the point is checked against x >= 0, the
rows (a . X rel rhs d) and the objective (primal feasibility), and the dual
against the rows: nonnegative on `<=` rows, u^T A >= c e on every column,
and u^T b d equal to the claimed value times e (optimality, by weak
duality). On a program of ints, Fractions are built only for what Optimal
and Infeasible return.

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
from operator import mul

# Consecutive degenerate pivots after which the entering column follows
# Bland's rule, until the next nondegenerate pivot. Beale's cycle under the
# largest reduced cost has 6 pivots, so 20 lets it run three times around.
DEGENERATE_RUN = 20


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


def _exact(value):
    """An int as it is; any other value as a Fraction."""
    return value if type(value) is int else Fraction(value)


class LinearProgram:
    """maximize objective . x subject to linear constraints and x >= 0."""

    def __init__(self, num_vars, objective):
        objective = list(map(_exact, objective))
        if len(objective) != num_vars:
            raise ValueError("objective length does not match variable count")
        self.num_vars = num_vars
        self.objective = objective
        self.rows = []

    def add(self, coeffs, rel, rhs):
        coeffs = list(map(_exact, coeffs))
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length does not match variable count")
        if rel not in ("<=", ">=", "="):
            raise ValueError(f"bad relation {rel!r}")
        self.rows.append((coeffs, rel, _exact(rhs)))


def standard_form(lp):
    """The rows of lp as (coefficients, '<=' or '=', rhs), each '>=' row negated."""
    return [([-c for c in coeffs], "<=", -rhs) if rel == ">=" else (coeffs, rel, rhs)
            for coeffs, rel, rhs in lp.rows]


def _coprime(row):
    g = gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def common_denominator(values):
    """(numerators, denominator): rationals as int numerators over the lcm of
    their denominators. A list of ints comes back as it is, over 1."""
    if {int}.issuperset(map(type, values)):
        return values, 1
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _integer_row(values):
    """The positive integer multiple of a row of rationals whose entries are coprime."""
    return _coprime(common_denominator(values)[0])


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
    point, d, dual, e = outcome
    value = sum(map(mul, lp.objective, point))
    _certify(rows, lp.objective, point, d, value, dual, e)
    return Optimal(Fraction(value, d), tuple(Fraction(x, d) for x in point),
                   tuple(Fraction(u, e) for u in dual))


def _simplex(rows, objective):
    """Two-phase simplex on the standard-form rows: (point, d, dual, e) with
    the point point / d and the dual dual / e in int numerators,
    Infeasible(ray) or UNBOUNDED."""
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
        row = list(dense) + [0] * (nslack + nart) + [rhs]
        sign = -1 if rhs < 0 else 1
        if rel == "<=":
            row[slack] = 1
            dual_col.append((slack, 1))
            slack += 1
        if sign < 0:
            row = [-c for c in row]
        if rel == "<=" and sign > 0:
            basis.append(slack - 1)
        else:
            row[art] = 1
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
        z = _integer_row(list(costs) + [0, 1])
        for row, b in zip(tableau, basis):
            if z[b]:
                z = _eliminate(z, row, b)
        return z

    def run_simplex(z, candidates):
        """Simplex over the first candidates columns; None when unbounded.

        Enters on the largest reduced cost, the lowest column on ties; the
        z[j] share one positive scale, so they compare as they are. After
        DEGENERATE_RUN degenerate pivots in a row it enters on the lowest
        column with a positive reduced cost (Bland's rule) until a pivot
        moves the point, which ends every run of degenerate pivots.
        """
        degenerate = 0
        while True:
            if degenerate < DEGENERATE_RUN:
                top = max(z[:candidates], default=0)
                if top <= 0:
                    return z
                enter = z.index(top)
            else:
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
            degenerate = 0 if lead[-1] else degenerate + 1
            z = pivot(leave, enter, z)

    if nart:
        z = run_simplex(objective_row([0] * real + [-1] * nart), width)
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

    z = run_simplex(objective_row(list(objective) + [0] * (width - ncols)), real)
    if z is None:
        return UNBOUNDED
    # A basic entry of a row is positive: pivot() makes it so, and later
    # eliminations only multiply it by positive pivots.
    basic = [(b, row) for row, b in zip(tableau, basis) if b < ncols]
    d = lcm(*(row[b] for b, row in basic))
    point = [0] * ncols
    for b, row in basic:
        point[b] = row[-1] * (d // row[b])
    return point, d, [-sign * z[col] for col, sign in dual_col], z[-1]


def _certify(rows, objective, point, d, value, dual, e):
    """Exact check of the claimed optimum value / d at the point point / d
    with the dual dual / e, all int numerators, on the standard-form rows and
    the objective; in integers when those are ints.

    Raises AssertionError when d or e is not positive, when point has a
    negative coordinate or breaks a row (a . point rel rhs d), when value is
    not its objective, or when dual fails to prove that nothing does better:
    dual must be nonnegative on the '<=' rows, cover the objective on every
    column (u^T A >= c e), and have u^T b d equal to value e.
    """
    if d <= 0 or e <= 0:
        raise AssertionError("denominator is not positive")
    if any(x < 0 for x in point):
        raise AssertionError("solution has a negative coordinate")
    for dense, rel, rhs in rows:
        lhs, bound = sum(map(mul, dense, point)), rhs * d
        if not (lhs <= bound if rel == "<=" else lhs == bound):
            raise AssertionError("solution violates a constraint")
    if sum(map(mul, objective, point)) != value:
        raise AssertionError("objective value mismatch")
    if len(dual) != len(rows):
        raise AssertionError("dual has the wrong length")
    cover = [0] * len(objective)  # u^T A, built from the rows the dual weighs
    for u, (dense, rel, _) in zip(dual, rows):
        if rel == "<=" and u < 0:
            raise AssertionError("dual is negative on an inequality row")
        if u:
            cover = [a + u * b for a, b in zip(cover, dense)]
    if any(a < c * e for a, c in zip(cover, objective)):
        raise AssertionError("dual does not cover the objective on a column")
    if sum(map(mul, dual, (rhs for _, _, rhs in rows))) * d != value * e:
        raise AssertionError("dual value differs from the primal value")
