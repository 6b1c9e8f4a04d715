"""Exact rational linear programming via a primal simplex on a condensed integer tableau.

The one program solved is: maximize c . x subject to linear rows, x >= 0.
Int coefficients, objective entries and right-hand sides stay ints; every
other value becomes a Fraction. `standard_form` negates each `>=` row into a
`<=` row and keeps the rest. A `<=` row with rhs >= 0 starts with its slack
basic; every other row gets an artificial column, and phase 1 drives the
artificials out. A program of `<=` rows with rhs >= 0, such as Pearce's LPs
in dominance._pearce, has the origin as a feasible vertex: its slack basis
starts the simplex, with no artificial column and no phase 1.

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

Every optimum is certified before it is returned, without trusting the
pivots, on those int numerators and the standard-form rows, so a program of
ints is certified in integers: the point is checked against x >= 0, the
rows (a . X rel rhs d) and the objective (primal feasibility), and the dual
against the rows: nonnegative on `<=` rows, u^T A >= c e on every column,
and u^T b d equal to the claimed value times e (optimality, by weak
duality). Optimal keeps those numerators as `ints` and builds its Fraction
value, point and dual only when one of them is read.

An infeasible program comes with the dual of phase 1 as its certificate, a
Farkas ray on the rows of the standard form (every `>=` row negated):
nonnegative on `<=` rows, u^T A >= 0 on every column and u^T b < 0, so no
x >= 0 meets the rows. Callers that act on the ray re-check what they
derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

# Consecutive degenerate pivots after which the entering column follows
# Bland's rule, until the next nondegenerate pivot. Beale's cycle under the
# largest reduced cost has 6 pivots, so 20 lets it run three times around.
DEGENERATE_RUN = 20


class Optimal:
    """A certified optimum: value, point, and dual, the dual on the rows of
    standard_form(lp), one entry per row. Equality compares value and point;
    the dual takes no part in it.

    ints is (value, point, d, dual, e), numerators over positive int
    denominators: the value is value / d, the point point / d and the dual
    dual / e. All are ints but the value of a program whose objective holds
    a non-int. solve builds an Optimal from the numerators _certify checked,
    and each Fraction field is built the first time it is read.
    """

    __slots__ = ("_value", "_point", "_dual", "_ints")

    def __init__(self, value, point, dual=()):
        self._value, self._point, self._dual = value, point, dual
        self._ints = None

    @classmethod
    def _scaled(cls, value, point, d, dual, e):
        res = cls.__new__(cls)
        res._value = res._point = res._dual = None
        res._ints = (value, point, d, dual, e)
        return res

    @property
    def value(self):
        if self._value is None:
            value, _, d, _, _ = self._ints
            self._value = Fraction(value, d)
        return self._value

    @property
    def point(self):
        if self._point is None:
            _, point, d, _, _ = self._ints
            self._point = tuple(Fraction(x, d) for x in point)
        return self._point

    @property
    def dual(self):
        if self._dual is None:
            *_, dual, e = self._ints
            self._dual = tuple(Fraction(u, e) for u in dual)
        return self._dual

    @property
    def ints(self):
        if self._ints is None:
            (value, *point), d = common_denominator([self._value, *self._point])
            self._ints = (value, point, d, *common_denominator(list(self._dual)))
        return self._ints

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.point) == (other.value, other.point)

    def __hash__(self):
        return hash((self.value, self.point))

    def __repr__(self):
        return f"Optimal(value={self.value!r}, point={self.point!r}, dual={self.dual!r})"


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


def _exact_row(values):
    """values as a list, with _exact mapped over it when it holds a non-int."""
    row = list(values)
    return row if {int}.issuperset(map(type, row)) else list(map(_exact, row))


class LinearProgram:
    """maximize objective . x subject to linear constraints and x >= 0."""

    def __init__(self, num_vars, objective):
        objective = _exact_row(objective)
        if len(objective) != num_vars:
            raise ValueError("objective length does not match variable count")
        self.num_vars = num_vars
        self.objective = objective
        self.rows = []

    def add(self, coeffs, rel, rhs):
        coeffs = _exact_row(coeffs)
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


def solve(lp):
    """Solve an LP exactly. Returns Optimal(value, point, dual), Infeasible(ray) or UNBOUNDED."""
    rows = standard_form(lp)
    outcome = _simplex(rows, lp.objective)
    if not isinstance(outcome, tuple):
        return outcome
    point, d, dual, e = outcome
    value = sum(map(mul, lp.objective, point))
    _certify(rows, lp.objective, point, d, value, dual, e)
    return Optimal._scaled(value, point, d, dual, e)


def _simplex(rows, objective):
    """The simplex on the standard-form rows, with phase 1 only when some row
    needs an artificial: (point, d, dual, e) with the point point / d and the
    dual dual / e in int numerators, Infeasible(ray) or UNBOUNDED."""
    ncols = len(objective)
    # Variables: structural | slacks | artificials. A '<=' row with a
    # nonnegative rhs starts with its slack basic; every other row gets a
    # basic artificial, and a '<=' row among them keeps its slack nonbasic.
    # dual_col[r] = (variable, sign) such that the dual value of row r is
    # -sign * (reduced cost of the variable).
    real = ncols + sum(1 for _, rel, _ in rows if rel == "<=")
    basis, dual_col, slacks = [], [], []
    slack, art = ncols, real
    for _, rel, rhs in rows:
        if rel == "<=":
            dual_col.append((slack, 1))
            if rhs >= 0:
                basis.append(slack)
            else:
                slacks.append(slack)
            slack += 1
        if rel == "=" or rhs < 0:
            if rel == "=":
                dual_col.append((art, -1 if rhs < 0 else 1))
            basis.append(art)
            art += 1
    width = art
    # The condensed tableau: each row holds the nonbasic variables' entries,
    # in the order of nonbasic, then its rhs, then its scale.
    nonbasic = list(range(ncols)) + slacks
    tableau = []
    for (dense, rel, rhs), b, (v, _) in zip(rows, basis, dual_col):
        row = list(dense) + [0] * len(slacks) + [rhs]
        if b >= real:
            if rel == "<=":
                row[nonbasic.index(v)] = 1
            if rhs < 0:
                row = [-a for a in row]
        tableau.append(_integer_row(row + [1]))

    def pivot(r, k, z=None):
        """Enter nonbasic[k] in row r, whose basic variable takes column k."""
        prow = tableau[r]
        if prow[k] < 0:
            prow = tableau[r] = [-a for a in prow]
        for r2, row in enumerate(tableau):
            if r2 != r and row[k]:
                tableau[r2] = _eliminate(row, prow, k)
        if z is not None and z[k]:
            z = _eliminate(z, prow, k)
        prow[k], prow[-1] = prow[-1], prow[k]
        nonbasic[k], basis[r] = basis[r], nonbasic[k]
        return z

    def objective_row(costs):
        """Reduced costs on the nonbasic columns, then -value, then the
        positive scale of both, from the costs of every variable. Each basic
        variable's cost is cleared with its row written out in full width,
        where every variable has a column and the scale entry is 0."""
        z = _integer_row(list(costs) + [0, 1])
        for b, row in zip(basis, tableau):
            if z[b]:
                full = [0] * width + [row[-2], 0]
                for v, a in zip(nonbasic, row):
                    full[v] = a
                full[b] = row[-1]
                z = _eliminate(z, full, b)
        return [z[v] for v in nonbasic] + z[-2:]

    def reduced_costs(z):
        """The reduced cost of every variable in z, by variable; basic ones are 0."""
        costs = [0] * width
        for v, c in zip(nonbasic, z):
            costs[v] = c
        return costs

    def run_simplex(z, limit):
        """Simplex over the variables below limit; None when unbounded.

        Enters on the largest reduced cost, the lowest variable on ties; the
        z entries share one positive scale, so they compare as they are.
        After DEGENERATE_RUN degenerate pivots in a row it enters on the
        lowest variable with a positive reduced cost (Bland's rule) until a
        pivot moves the point, which ends every run of degenerate pivots.
        """
        columns = [k for k, v in enumerate(nonbasic) if v < limit]
        by_variable = nonbasic.__getitem__
        degenerate = 0
        while True:
            if degenerate < DEGENERATE_RUN:
                top = max(map(z.__getitem__, columns), default=0)
                if top <= 0:
                    return z
                enter = min((k for k in columns if z[k] == top), key=by_variable)
            else:
                enter = min((k for k in columns if z[k] > 0), key=by_variable, default=None)
                if enter is None:
                    return z
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
                return None
            degenerate = 0 if lead[-2] else degenerate + 1
            z = pivot(leave, enter, z)

    if width > real:
        z = run_simplex(objective_row([0] * real + [-1] * (width - real)), width)
        if z[-2]:
            # The phase-1 dual, where artificials cost -1: a row's ray entry is
            # read like its dual below, one scale added on an artificial.
            scale, costs = z[-1], reduced_costs(z)
            return Infeasible([Fraction(-sign * (costs[v] + scale if v >= real else costs[v]),
                                        scale) for v, sign in dual_col])
        # Drive remaining artificials out of the basis or drop redundant rows.
        drop = []
        for r in range(len(tableau)):
            if basis[r] >= real:
                row = tableau[r]
                k = min((k for k, v in enumerate(nonbasic) if v < real and row[k]),
                        key=nonbasic.__getitem__, default=None)
                if k is None:
                    drop.append(r)
                else:
                    pivot(r, k)
        for r in reversed(drop):
            del tableau[r]
            del basis[r]

    z = run_simplex(objective_row(list(objective) + [0] * (width - ncols)), real)
    if z is None:
        return UNBOUNDED
    # A row's scale is positive: pivot() makes it so, and later eliminations
    # only multiply it by positive pivots.
    basic = [(b, row) for row, b in zip(tableau, basis) if b < ncols]
    d = lcm(*(row[-1] for _, row in basic))
    point = [0] * ncols
    for b, row in basic:
        point[b] = row[-2] * (d // row[-1])
    costs = reduced_costs(z)
    return point, d, [-sign * costs[v] for v, sign in dual_col], z[-1]


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
