"""Exact simplex solver, cross-checked against vertex enumeration."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from epigame import lp as lp_module
from epigame.lp import UNBOUNDED, LinearProgram, Optimal, _certify, solve


def _fractions(res):
    """(value, point, dual) of an Optimal as the Fractions its numerators stand for."""
    return (Fraction(res.value, res.d), tuple(Fraction(x, res.d) for x in res.point),
            tuple(Fraction(u, res.e) for u in res.dual))


def test_known_optimum():
    lp = LinearProgram(2, [1, 1])
    lp.add([1, 2], 4)
    lp.add([3, 1], 6)
    res = solve(lp)
    assert isinstance(res, Optimal)
    value, point, _ = _fractions(res)
    assert value == Fraction(14, 5)
    assert point == (Fraction(8, 5), Fraction(6, 5))


def test_unbounded():
    lp = LinearProgram(2, [1, 0])
    lp.add([0, 1], 3)
    assert solve(lp) is UNBOUNDED


def test_upper_bounds_respected():
    # bounds are rows: x <= 1/3 and y <= 2; -y <= 1/4 holds for every y >= 0
    lp = LinearProgram(2, [1, 1])
    lp.add([1, 0], Fraction(1, 3))
    lp.add([0, -1], Fraction(1, 4))
    lp.add([0, 1], 2)
    assert _fractions(solve(lp))[0] == Fraction(1, 3) + 2


def test_bad_arity_rejected():
    lp = LinearProgram(2, [1, 1])
    with pytest.raises(ValueError):
        lp.add([1], 0)
    # every row is coeffs . x <= rhs with rhs >= 0, so the origin is feasible
    with pytest.raises(ValueError, match="rhs must be nonnegative, got -1"):
        lp.add([1, 1], -1)
    with pytest.raises(ValueError, match="rhs must be nonnegative, got -1/3"):
        lp.add([1, 1], Fraction(-1, 3))
    with pytest.raises(ValueError):
        LinearProgram(2, [1])
    # entries are ints or Fractions: a float is the binary rational nearest
    # its literal, not the one it names, and a bool is no number
    for bad in (0.1, True):
        message = f"must be ints or Fractions, got {bad!r}"
        with pytest.raises(TypeError, match=message):
            lp.add([1, bad], 1)
        with pytest.raises(TypeError, match=message):
            lp.add([1, 1], bad)
        with pytest.raises(TypeError, match=message):
            LinearProgram(2, [bad, 1])
    assert lp.rows == []


def test_results_are_exact_fractions():
    lp = LinearProgram(2, [7, 11])
    lp.add([3, 1], Fraction(1, 3))
    lp.add([1, 5], Fraction(1, 7))
    res = solve(lp)
    # Fraction right-hand sides too are read out in int numerators over d > 0
    assert {type(x) for x in (*res.point, res.d, *res.dual, res.e)} == {int} and res.d > 0
    value, point, _ = _fractions(res)
    assert value == sum(c * x for c, x in zip([7, 11], point))


# ---------- vertex enumeration oracle ----------


def _solve_square(rows, rhs):
    """Solve a square linear system exactly; None when singular."""
    n = len(rhs)
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1, 1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def _unit(num_vars, j):
    return [int(k == j) for k in range(num_vars)]


def _all_constraints(lp):
    """The rows of lp and x >= 0, each as coeffs . x <= rhs."""
    cons = [(tuple(c), rhs) for c, rhs in lp.rows]
    cons.extend((tuple(-a for a in _unit(lp.num_vars, j)), 0) for j in range(lp.num_vars))
    return cons


def _feasible(cons, point):
    return all(sum(c * x for c, x in zip(coeffs, point)) <= rhs for coeffs, rhs in cons)


def _vertex_optimum(lp):
    """Best objective value over polytope vertices; the origin is one.

    Sound for bounded feasible regions only: _boxed_lps caps every variable
    with a '<=' row, and in _pearce_lps the last row bounds them all.
    """
    cons = _all_constraints(lp)
    best = None
    for subset in itertools.combinations(cons, lp.num_vars):
        point = _solve_square([c for c, _ in subset], [r for _, r in subset])
        if point is None or not _feasible(cons, point):
            continue
        value = sum(c * x for c, x in zip(lp.objective, point))
        if best is None or value > best:
            best = value
    return best


# ints and Fractions mixed, so both kinds of row (and rows of both) are solved
_coeff = st.one_of(st.integers(-3, 3),
                   st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)))
_rhs = st.one_of(st.integers(0, 4), st.builds(Fraction, st.integers(0, 8), st.integers(1, 2)))


@st.composite
def _boxed_lps(draw):
    num_vars = draw(st.integers(1, 3))
    lp = LinearProgram(num_vars, draw(st.lists(_coeff, min_size=num_vars, max_size=num_vars)))
    for j in range(num_vars):
        lp.add(_unit(num_vars, j), draw(st.integers(0, 3)))
    for _ in range(draw(st.integers(0, 3))):
        lp.add(draw(st.lists(_coeff, min_size=num_vars, max_size=num_vars)), draw(_rhs))
    return lp


def _pearce_lp(gaps, weak):
    """dominance._pearce's LP on gap rows (a rival's payoffs minus
    dominated's, one entry per context): p >= 0 with every gap row . p <= 0
    and sum p <= 1, maximising sum p. weak writes p = q + t, with t an
    extra column to maximise, and the last row sum q + m t <= 1."""
    m = len(gaps[0])
    lp = LinearProgram(m + weak, [0] * m + [1] if weak else [1] * m)
    for gap in gaps:
        lp.add(list(gap) + [sum(gap)] * weak, 0)
    lp.add([1] * m + [m] * weak, 1)
    return lp


@st.composite
def _pearce_lps(draw):
    # bounded without caps: the last row and x >= 0 box every variable in
    m = draw(st.integers(1, 3))
    gap = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    return _pearce_lp(draw(st.lists(gap, min_size=1, max_size=3)), draw(st.booleans()))


@settings(deadline=None, max_examples=200)
@given(st.one_of(_boxed_lps(), _pearce_lps()))
def test_simplex_matches_vertex_enumeration(lp):
    res = solve(lp)
    assert isinstance(res, Optimal)
    assert _fractions(res)[0] == _vertex_optimum(lp)


# ---------- degenerate pivoting and the optimality certificate ----------


def _counted_eliminations(monkeypatch):
    """A list that grows by one entry per lp._eliminate call."""
    calls = []
    eliminate = lp_module._eliminate

    def counted(row, prow, j):
        calls.append(j)
        return eliminate(row, prow, j)

    monkeypatch.setattr(lp_module, "_eliminate", counted)
    return calls


def _beale():
    lp = LinearProgram(4, [Fraction(3, 4), -150, Fraction(1, 50), -6])
    lp.add([Fraction(1, 4), -60, Fraction(-1, 25), 9], 0)
    lp.add([Fraction(1, 2), -90, Fraction(-1, 50), 3], 0)
    lp.add([0, 0, 1, 0], 1)
    return lp


def test_bland_rule_terminates_on_beales_cycling_example(monkeypatch):
    # Under the largest reduced cost Beale's example cycles through 6
    # degenerate pivots, 15 row eliminations. After DEGENERATE_RUN = 20 such
    # pivots, three cycles and two pivots, Bland's rule takes over and ends
    # the cycle: 60 eliminations in all, against 15 under Bland's rule alone.
    calls = _counted_eliminations(monkeypatch)
    assert _fractions(solve(_beale()))[:2] == (Fraction(1, 20), (Fraction(1, 25), 0, 1, 0))
    assert len(calls) == 60
    del calls[:]
    monkeypatch.setattr(lp_module, "DEGENERATE_RUN", 0)  # Bland's rule alone
    assert _fractions(solve(_beale()))[:2] == (Fraction(1, 20), (Fraction(1, 25), 0, 1, 0))
    assert len(calls) == 15


def _seeded_pearce_lps():
    """80 Pearce LPs, strict and weak, on seeded payoffs of 4-9 contexts and 2-6 rivals."""
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(4, 9)
        mine = [rng.randint(0, 4) for _ in range(m)]
        rivals = [[rng.randint(0, 4) for _ in range(m)] for _ in range(rng.randint(2, 6))]
        gaps = [[b - a for a, b in zip(mine, r)] for r in rivals]
        for weak in (False, True):
            yield _pearce_lp(gaps, weak)


# The lp._eliminate calls of _seeded_pearce_lps under Bland's rule alone,
# the rule of every pivot before the largest reduced cost: counted with this
# generator under DEGENERATE_RUN = 0 on the two-phase solver this one
# replaced, which pivots a slack-form program as this one does.
BLAND_ELIMINATIONS = 1084


def test_largest_reduced_cost_needs_fewer_eliminations_on_pearce_lps(monkeypatch):
    calls = _counted_eliminations(monkeypatch)
    answers = [solve(lp) for lp in _seeded_pearce_lps()]
    count = len(calls)
    assert count < BLAND_ELIMINATIONS
    # Bland's rule alone reproduces the recorded count and the same verdicts
    del calls[:]
    monkeypatch.setattr(lp_module, "DEGENERATE_RUN", 0)
    bland = [solve(lp) for lp in _seeded_pearce_lps()]
    assert len(calls) == BLAND_ELIMINATIONS
    assert list(map(type, answers)) == list(map(type, bland))
    assert [_fractions(a)[0] for a in answers if isinstance(a, Optimal)] == [
        _fractions(b)[0] for b in bland if isinstance(b, Optimal)]


def test_programs_without_columns():
    assert _fractions(solve(LinearProgram(0, []))) == (0, (), ())
    lp = LinearProgram(0, [])
    lp.add([], 0)
    lp.add([], 1)
    assert _fractions(solve(lp)) == (0, (), (0, 0))


def test_tied_ratios_leave_the_lowest_basic_variable():
    # x enters first and ties on the last two rows; Bland's rule pivots out
    # the lower slack, which fixes which of the optimal vertices is returned
    lp = LinearProgram(3, [2, 2, 2])
    lp.add([2, 0, 0], 2)
    lp.add([2, 0, 2], 1)
    lp.add([2, 1, 1], 1)
    assert _fractions(solve(lp))[:2] == (Fraction(2), (0, Fraction(1, 2), Fraction(1, 2)))


def _two_row_lp():
    # maximize x + y s.t. x + 2y <= 4, 3x + y <= 6: optimum 14/5 at (8/5, 6/5),
    # proved by the dual (2/5, 1/5)
    lp = LinearProgram(2, [1, 1])
    lp.add([1, 2], 4)
    lp.add([3, 1], 6)
    return lp


# _certify reads in integers: the point (8/5, 6/5) with value 14/5 is the
# point (8, 6) and value 14 over d = 5, the dual (2/5, 1/5) is (2, 1) over e = 5


def test_certificate_accepts_the_optimum_with_its_dual():
    lp = _two_row_lp()
    rows = lp.rows
    _certify(rows, lp.objective, (8, 6), 5, 14, [2, 1], 5)
    # the same optimum with a dual that proves a looser bound is refused
    with pytest.raises(AssertionError):
        _certify(rows, lp.objective, (8, 6), 5, 14, [1, 0], 1)


def test_certificate_rejects_a_feasible_suboptimal_point_with_any_dual():
    lp = _two_row_lp()
    rows = lp.rows
    # the point (1, 1) is feasible, objective 2 < 14/5; the grid is the duals k/5
    duals = [[2, 1]] + [list(u) for u in itertools.product(range(-5, 11), repeat=2)]
    for dual in duals:
        with pytest.raises(AssertionError):
            _certify(rows, lp.objective, (1, 1), 1, 2, dual, 5)


def test_certificate_refuses_a_point_that_breaks_a_row():
    # (2, 2) has objective 4, and the dual (1, 0) covers both columns with
    # u.b = 4, so only the row check sees that x + 2y = 6 exceeds 4
    lp = _two_row_lp()
    with pytest.raises(AssertionError, match="violates a constraint"):
        _certify(lp.rows, lp.objective, (2, 2), 1, 4, [1, 0], 1)


def test_certificate_needs_positive_denominators():
    # over e = -1 the zero dual covers c e = (-1, -1) and has u.b d = 0 = value
    # e, so only the sign of e stops it from proving the suboptimal origin
    lp = _two_row_lp()
    rows = lp.rows
    for d, e in ((1, -1), (1, 0), (-1, 1), (0, 1)):
        with pytest.raises(AssertionError, match="denominator is not positive"):
            _certify(rows, lp.objective, (0, 0), d, 0, [0, 0], e)


def test_certificate_refuses_a_negative_coordinate():
    # maximize -x s.t. -x <= 5: x = -5 meets the row, its value 5 matches and
    # the dual 1 on the row covers the column with u.b = 5, so only the
    # x >= 0 check stands between it and a false optimum
    lp = LinearProgram(1, [-1])
    lp.add([-1], 5)
    rows = lp.rows
    assert rows == [([-1], 5)]
    with pytest.raises(AssertionError, match="negative coordinate"):
        _certify(rows, lp.objective, (-5,), 1, 5, [1], 1)
    assert _fractions(solve(lp))[:2] == (Fraction(0), (Fraction(0),))
    _certify(rows, lp.objective, (0,), 1, 0, [0], 1)


def test_certificate_needs_a_nonnegative_dual_on_inequality_rows():
    # maximize -x s.t. x <= 0: u = -1 covers the column and gives u.b = 0,
    # the optimum, yet proves nothing because it is negative on a '<=' row
    lp = LinearProgram(1, [-1])
    lp.add([1], 0)
    rows = lp.rows
    _certify(rows, lp.objective, (0,), 1, 0, [0], 1)
    with pytest.raises(AssertionError, match="negative on an inequality row"):
        _certify(rows, lp.objective, (0,), 1, 0, [-1], 1)


def test_an_integer_program_builds_no_fraction(monkeypatch):
    # every row and the objective are ints: the simplex, its read-out and
    # the certificate stay in ints, and the answer is those ints
    lp = _two_row_lp()
    assert all(type(v) is int for coeffs, rhs in lp.rows for v in (*coeffs, rhs))
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    res = solve(lp)
    monkeypatch.undo()
    assert built == []
    assert res == Optimal(14, (8, 6), 5, (2, 1), 5)
    with pytest.raises(AttributeError):
        res.value = 0


def test_rows_of_slack_form_need_no_artificial_column(monkeypatch):
    # '<=' rows with rhs >= 0 start from the slack basis: the tableau keeps
    # only the nonbasic columns, here the two structural ones, then the rhs
    # and the scale; no artificial column and no phase 1 is ever priced
    calls = []
    eliminate = lp_module._eliminate

    def recorded(row, prow, j):
        calls.append((len(row), len(prow)))
        return eliminate(row, prow, j)

    monkeypatch.setattr(lp_module, "_eliminate", recorded)
    lp = _two_row_lp()
    assert _fractions(solve(lp))[:2] == (Fraction(14, 5), (Fraction(8, 5), Fraction(6, 5)))
    assert calls and set(calls) == {(2 + 2, 2 + 2)}
