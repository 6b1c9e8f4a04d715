"""Exact rational linear programming via a primal simplex on a condensed integer tableau.

The one program solved is in slack form: maximize c . x subject to rows
a . x <= b with b >= 0, and x >= 0. Coefficients, objective entries and
right-hand sides are ints or Fractions. A float, a bool or any other value
is refused: a float is the binary rational nearest its literal, so 0.1
would be solved as 3602879701896397/36028797018963968. The origin
is feasible, so the simplex starts from the slack basis, one slack per row,
and needs no artificial column and no phase 1. Pearce's LPs in
dominance._pearce are such programs: their rows have rhs 0 or 1.

The tableau is condensed (Chvatal's dictionaries): a row keeps the entries
of the nonbasic variables only, then its rhs, then its scale, the
coefficient of its basic variable. A pivot moves the leaving variable into
the entering variable's column. Every row, the reduced-cost row included,
is a list of Python ints: a positive multiple of the exact rational row,
divided by the gcd of its entries after each pivot. Ratios are compared by
cross-multiplication. The final tableau is read in integers too: the point
as numerators over one common denominator d, the lcm of the basic
structural rows' scales, and the dual as numerators over the reduced-cost
row's scale e.

The entering variable is the one with the largest reduced cost (Dantzig's
rule), the lowest index on ties; the leaving row has the least ratio, the
lowest basic index on ties. Both rules are keyed by variable index, not by
a column's place in the condensed tableau. On degenerate programs, such as
Pearce's LPs whose gap rows all have rhs 0, the largest reduced cost can
cycle. So after DEGENERATE_RUN consecutive degenerate pivots (the leaving
row's rhs is 0) the entering variable becomes the lowest one with a
positive reduced cost (Bland's rule) until the next nondegenerate pivot.
The pivoting stays finite: a nondegenerate pivot raises the objective, so a
cycle would be an unbroken run of degenerate pivots, and Bland's rule ends
every such run.

The answer is a certified Optimal or UNBOUNDED. Every optimum is certified
before it is returned, without trusting the pivots, on those int
numerators and the program's rows, so a program of ints is certified in
integers: the point is checked against x >= 0, the rows (a . X <= b d) and
the objective (primal feasibility), and the dual against the rows:
nonnegative, u^T A >= c e on every column, and u^T b d equal to the
claimed value times e (optimality, by weak duality). Optimal is those
numerators and their denominators d and e.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

# Consecutive degenerate pivots after which the entering column follows
# Bland's rule, until the next nondegenerate pivot. Beale's cycle under the
# largest reduced cost has 6 pivots, so 20 lets it run three times around.
DEGENERATE_RUN = 20


class Optimal(NamedTuple):
    """A certified optimum in int numerators over positive int denominators:
    the value value / d at the point point / d, and the dual dual / e on the
    rows of the program, one entry per row. point and dual are tuples of
    ints; value is an int unless the objective holds a non-int. Equality is
    tuple equality, numerators and denominators alike.
    """

    value: int | Fraction
    point: tuple
    d: int
    dual: tuple
    e: int


class Unbounded:
    def __repr__(self):
        return "Unbounded"


UNBOUNDED = Unbounded()


def _exact(values):
    """values as a list of ints and Fractions; any other entry is refused."""
    row = list(values)
    if not {int, Fraction}.issuperset(map(type, row)):
        bad = next(v for v in row if type(v) not in (int, Fraction))
        raise TypeError(f"LP entries must be ints or Fractions, got {bad!r}")
    return row


class LinearProgram:
    """maximize objective . x subject to rows coeffs . x <= rhs, rhs >= 0, and x >= 0."""

    def __init__(self, num_vars, objective):
        objective = _exact(objective)
        if len(objective) != num_vars:
            raise ValueError("objective length does not match variable count")
        self.num_vars = num_vars
        self.objective = objective
        self.rows = []

    def add(self, coeffs, rhs):
        """Add the row coeffs . x <= rhs; a negative rhs is refused."""
        *coeffs, rhs = _exact([*coeffs, rhs])
        if len(coeffs) != self.num_vars:
            raise ValueError("constraint length does not match variable count")
        if rhs < 0:
            raise ValueError(f"rhs must be nonnegative, got {rhs}")
        self.rows.append((coeffs, rhs))


def _coprime(row):
    g = gcd(*row)
    return row if g <= 1 else [a // g for a in row]


def _integer_row(values):
    """The positive integer multiple of a row of rationals whose entries are coprime."""
    if not {int}.issuperset(map(type, values)):
        scale = lcm(*(v.denominator for v in values))
        values = [v.numerator * (scale // v.denominator) for v in values]
    return _coprime(values)


def _eliminate(row, prow, j):
    """row after the pivot on prow's entry j, which must be positive: a
    positive multiple of row minus the multiple of prow that clears column j.

    The last entry of a row is its scale, the coefficient of its basic
    variable, or 0 where that variable has a column of its own. The pivot
    moves prow's basic variable into column j, where prow holds its scale
    and row holds 0; row's own basic variable is only multiplied.
    """
    piv, f = prow[j], row[j]
    new = [piv * a - f * b for a, b in zip(row, prow)]
    new[j] = -f * prow[-1]
    new[-1] = piv * row[-1]
    return _coprime(new)


def solve(program):
    """Solve a slack-form program exactly: a certified Optimal(value, point,
    d, dual, e) of int numerators and their denominators, or UNBOUNDED."""
    rows, objective = program.rows, program.objective
    outcome = _simplex(rows, objective)
    if outcome is UNBOUNDED:
        return outcome
    point, d, dual, e = outcome
    value = sum(map(mul, objective, point))
    _certify(rows, objective, point, d, value, dual, e)
    return Optimal(value, point, d, dual, e)


def _simplex(rows, objective):
    """The simplex from the slack basis: (point, d, dual, e) with the point
    point / d and the dual dual / e in int numerators, or UNBOUNDED.

    Enters on the largest reduced cost, the lowest variable on ties; the z
    entries share one positive scale, so they compare as they are. After
    DEGENERATE_RUN degenerate pivots in a row it enters on the lowest
    variable with a positive reduced cost (Bland's rule) until a pivot moves
    the point, which ends every run of degenerate pivots.
    """
    ncols = len(objective)
    # Variables: structural, then row r's slack ncols + r, basic at the start.
    # Each row of the condensed tableau holds the nonbasic variables' entries,
    # in the order of nonbasic, then its rhs, then its scale; so does z, the
    # reduced costs, then -value, then their positive scale.
    nonbasic = list(range(ncols))
    basis = list(range(ncols, ncols + len(rows)))
    tableau = [_integer_row([*coeffs, rhs, 1]) for coeffs, rhs in rows]
    z = _integer_row([*objective, 0, 1])
    columns = range(ncols)
    by_variable = nonbasic.__getitem__
    degenerate = 0
    while True:
        if degenerate < DEGENERATE_RUN:
            top = max(z[:ncols], default=0)
            if top <= 0:
                break
            enter = min((k for k in columns if z[k] == top), key=by_variable)
        else:
            enter = min((k for k in columns if z[k] > 0), key=by_variable, default=None)
            if enter is None:
                break
        leave = None
        for r, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                if leave is None:
                    leave, lead = r, row
                    continue
                mine, best = row[-2] * lead[enter], lead[-2] * a
                if mine < best or (mine == best and basis[r] < basis[leave]):
                    leave, lead = r, row
        if leave is None:
            return UNBOUNDED
        degenerate = 0 if lead[-2] else degenerate + 1
        # Enter nonbasic[enter] in row leave, whose basic variable takes its column.
        for r, row in enumerate(tableau):
            if r != leave and row[enter]:
                tableau[r] = _eliminate(row, lead, enter)
        z = _eliminate(z, lead, enter)
        lead[enter], lead[-1] = lead[-1], lead[enter]
        nonbasic[enter], basis[leave] = basis[leave], nonbasic[enter]
    # A row's scale is positive: it starts at 1, and every elimination
    # multiplies it by a positive pivot.
    basic = [(b, row) for row, b in zip(tableau, basis) if b < ncols]
    d = lcm(*(row[-1] for _, row in basic))
    point = [0] * ncols
    for b, row in basic:
        point[b] = row[-2] * (d // row[-1])
    # A row's dual is minus its slack's reduced cost, 0 while the slack is basic.
    dual = [0] * len(rows)
    for v, c in zip(nonbasic, z):
        if v >= ncols:
            dual[v - ncols] = -c
    return tuple(point), d, tuple(dual), z[-1]


def _certify(rows, objective, point, d, value, dual, e):
    """Exact check of the claimed optimum value / d at the point point / d
    with the dual dual / e, all int numerators, on the rows and the
    objective; in integers when those are ints.

    Raises AssertionError when d or e is not positive, when point has a
    negative coordinate or breaks a row (a . point <= rhs d), when value is
    not its objective, or when dual fails to prove that nothing does better:
    dual must be nonnegative, cover the objective on every column
    (u^T A >= c e), and have u^T b d equal to value e.
    """
    if d <= 0 or e <= 0:
        raise AssertionError("denominator is not positive")
    if any(x < 0 for x in point):
        raise AssertionError("solution has a negative coordinate")
    for dense, rhs in rows:
        if sum(map(mul, dense, point)) > rhs * d:
            raise AssertionError("solution violates a constraint")
    if sum(map(mul, objective, point)) != value:
        raise AssertionError("objective value mismatch")
    if len(dual) != len(rows):
        raise AssertionError("dual has the wrong length")
    cover = [0] * len(objective)  # u^T A, built from the rows the dual weighs
    for u, (dense, _) in zip(dual, rows):
        if u < 0:
            raise AssertionError("dual is negative on an inequality row")
        if u:
            cover = [a + u * b for a, b in zip(cover, dense)]
    if any(a < c * e for a, c in zip(cover, objective)):
        raise AssertionError("dual does not cover the objective on a column")
    if sum(map(mul, dual, (rhs for _, rhs in rows))) * d != value * e:
        raise AssertionError("dual value differs from the primal value")
