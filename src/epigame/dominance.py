"""Dominance relations and best responses on restrictions of a game.

Contexts come from the opponents' part of a restriction; the comparison and
belief sets are passed explicitly so local and global property variants can
share one implementation.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from itertools import compress, repeat
from operator import and_, eq, ge, gt, mul, sub

from .games import BudgetExceededError, MixedStrategy
from .lp import LinearProgram, Optimal, solve


class BeliefClassError(ValueError):
    """Raised for an unknown belief class."""


def _rows(context, i, dominator, dominated):
    """The kernel rows of dominator and dominated on the context; a mixture's
    row is the weighted sum of its support's rows."""
    rows = context.rows(i)
    if isinstance(dominator, MixedStrategy):
        parts = [(w, rows[s]) for s, w in dominator.weights.items() if w]
        mixed = tuple(sum(w * row[x] for w, row in parts) for x in range(len(rows[dominated])))
        return mixed, rows[dominated]
    return rows[dominator], rows[dominated]


def row_strictly_dominates(a, b):
    """Row a is greater than row b in every context (vacuously when empty)."""
    return all(map(gt, a, b))


def row_weakly_dominates(a, b):
    """Row a is at least row b in every context and greater in some."""
    return a != b and all(map(ge, a, b))


def strictly_dominates(game, context, i, dominator, dominated):
    """dominator beats dominated in every joint opponent strategy of the context.

    Vacuously true when the context is empty on the opponents' side.
    """
    return row_strictly_dominates(*_rows(context, i, dominator, dominated))


def weakly_dominates(game, context, i, dominator, dominated):
    """At least as good everywhere and strictly better somewhere in the context."""
    return row_weakly_dominates(*_rows(context, i, dominator, dominated))


def _reached_alone(rival_rows, best):
    """Per context, whether exactly one of the rows reaches best there."""
    return tuple(map(eq, map(tuple.count, zip(*rival_rows), best), repeat(1)))


def _best_responders(rows, rivals, candidates, strict=False):
    """Split candidates into those at least as good as every rival (strict:
    better than every other rival) in some context, and the rest, on the
    cut rows of a restriction and for a frozenset of rivals.

    The one pure prefilter of every decision here. By the pure half of
    Pearce's lemma a hit is a best response, and no mixture over the rivals
    strictly (strict: weakly) dominates it. The rivals' context-wise maximum
    is built once per cut and rival set. With no rivals, a candidate
    qualifies wherever it has a context. Returns two lists.
    """
    hits, rest = [], []
    if not rivals:
        for s in candidates:
            (hits if rows[s] else rest).append(s)
        return hits, rest
    best = rows.column_max(rivals)
    alone = None  # built when a candidate first needs it
    for s in candidates:
        row = rows[s]
        if not strict:
            hit = any(map(ge, row, best))
        elif s not in rivals:
            hit = any(map(gt, row, best))
        elif any(map(eq, row, best)):  # alone at the maximum, where every other rival is below
            if alone is None:
                alone = _reached_alone(list(map(rows.__getitem__, rivals)), best)
            hit = any(map(and_, map(eq, row, best), alone))
        else:
            hit = False
        (hits if hit else rest).append(s)
    return hits, rest


def undominated(rows, rivals, candidates, weak=False, mixed=False):
    """The candidates that no rival (mixed: no mixture over the rivals)
    strictly (weak: weakly) dominates, on the cut rows of a restriction and
    for a frozenset of rivals: the one set-wise dominance rule, which keeps
    those that _dominators finds no dominator for."""
    return _dominators(rows, rivals, candidates, weak, mixed)[0]


def _dominators(rows, rivals, candidates, weak, mixed):
    """(kept, dominators): the list of candidates that undominated keeps, and
    {candidate: the int weights of its dominator} for the others, where the
    dominator is the first rival in index order that dominates the candidate,
    with weight 1, or else (mixed) _pearce's mixture over the sorted rivals.

    _best_responders keeps its hits; only the rest are scanned against every
    rival with row_strictly_dominates (weak: row_weakly_dominates). The scan
    also keeps, under weak, a row equal to the rivals' maximum: no rival
    exceeds it anywhere. Under mixed, _pearce decides the survivors with a
    context; one without survives the scan only under weak, and stays.
    """
    if not rivals:
        return candidates, {}
    kept, rest = _best_responders(rows, rivals, candidates, strict=weak)
    found = {}
    if rest:
        support = sorted(rivals)
        rival_rows = list(map(rows.__getitem__, support))
        dominates = row_weakly_dominates if weak else row_strictly_dominates
        for s in rest:
            mine = rows[s]
            d = next(compress(support, map(dominates, rival_rows, repeat(mine))), None)
            if d is not None:
                found[s] = {d: 1}
            elif mixed and mine and (weights := _pearce(rows, support, s, weak)[0]):
                found[s] = weights
            else:
                kept.append(s)
    return kept, found


def mixed_strictly_dominates_exists(game, context, i, support, dominated):
    """Search for a mixed strategy over support strictly dominating dominated:
    the witness MixedStrategy, the set-wise rule's dominator, or None."""
    return _mixed_dominator(game, context, i, support, dominated, weak=False)


def mixed_weakly_dominates_exists(game, context, i, support, dominated):
    """Search for a weakly dominating mixture over support: the witness
    MixedStrategy, the set-wise rule's dominator, or None."""
    return _mixed_dominator(game, context, i, support, dominated, weak=True)


def _mixed_dominator(game, context, i, support, dominated, weak):
    """The search both mixed_*_dominates_exists run; weak picks the relation.
    The dominator that _dominators finds, normalised: a pure one, the first
    in index order, comes back as its point mass."""
    rivals = frozenset(support)
    if not rivals:
        raise ValueError("empty support")
    weights = _dominators(context.rows(i), rivals, (dominated,), weak, True)[1].get(dominated)
    if weights is None:
        return None
    total = sum(weights.values())
    return MixedStrategy(game, i, {s: Fraction(u, total) for s, u in weights.items()})


def _pearce(rows, support, dominated, weak=False):
    """(mixture, belief): the int weights {strategy: weight} of a mixture
    over the sorted support that strictly (weak: weakly) dominates dominated
    on a player's int rows, and None; or None and the int weights, one per
    context, of a belief against which dominated does at least as well as
    every strategy in support. Each is its weights over their sum, and only
    strategies of positive weight are keys of the mixture. The caller has
    checked that dominated has a non-empty row; the LP also decides a pure
    best response or a pure dominator, which _dominators rules out first.

    One LP on the int rows, whose primal and dual give both sides of
    Pearce's lemma. It weighs the contexts with p >= 0 under one gap row per
    other strategy r in support, (row_r - dominated's row) . p <= 0, and
    sum p <= 1, and maximises sum p; with weak set, p = q + t with q >= 0,
    the last row is sum q + m t <= 1 and the LP maximises t. Its rows are
    '<=' rows with rhs 0 or 1, the slack form lp.solve takes: the simplex
    starts at the origin, and the last row bounds every variable, so the
    answer is a certified Optimal, never UNBOUNDED.
    A value above 0 means the point is a belief (weak: one with full support)
    against which dominated does at least as well as every other strategy in
    support, and by Pearce's lemma no mixture dominates. At value 0 the dual
    on the gap rows is the dominating mixture: nonnegative, as these are
    '<=' rows, and covering every column with the last row's dual at 0.
    Either answer is read from the Optimal, whose fields are the int
    numerators _certify checked and their denominators, and re-checked in
    integers on the rows before it is used: the belief scaled to
    int weights, the mixture to int weights U whose row sum_s U_s row_s must
    dominate (sum U) times dominated's row. Those U are the weights returned,
    so a caller that only asks whether a witness exists builds no Fraction
    and no MixedStrategy.
    """
    mine = rows[dominated]
    # dominated's own gap row would be 0 <= 0, whose dual entry is 0
    others = [r for r in support if r != dominated]
    m = len(mine)
    lp = LinearProgram(m + weak, [0] * m + [1] if weak else [1] * m)  # weak: t is last
    for r in others:
        gap = list(map(sub, rows[r], mine))
        if weak:
            gap.append(sum(gap))
        lp.add(gap, 0)
    lp.add([1] * m + [m] * weak, 1)
    res = solve(lp)
    if not isinstance(res, Optimal):
        raise AssertionError("Pearce LP has no optimum")
    value, point, total, dual, _ = res
    if value:
        t = point[m] if weak else 0
        weights = [w + t for w in point[:m]]  # p = q + t, times total
        if any(w < 0 for w in weights) or sum(weights) != total:
            raise AssertionError("LP belief is not a distribution")
        value = _dot(weights, mine)
        if any(value < _dot(weights, rows[r]) for r in others):
            raise AssertionError("LP belief does not support the strategy")
        return None, weights
    weights = dual[:len(others)]
    total = sum(weights)
    if any(u < 0 for u in weights) or total <= 0:
        raise AssertionError("LP mixture is not a distribution")
    mixed = tuple(_dot(weights, column) for column in zip(*(rows[s] for s in others)))
    row_dominates = row_weakly_dominates if weak else row_strictly_dominates
    if not row_dominates(mixed, tuple(total * x for x in mine)):
        raise AssertionError("LP mixture does not dominate")
    return {s: u for s, u in zip(others, weights) if u}, None


def _dot(weights, row):
    return sum(map(mul, weights, row))


def is_best_response(game, comparison, beliefs_in, i, s_i, belief_class="pure"):
    """Is s_i at least as good as every strategy in comparison_i against some
    belief held in beliefs_in?

    belief_class: 'pure' (joint opponent strategies), 'correlated'
    (distributions over joint opponent strategies), or 'mixed' (independent
    per-opponent mixtures; with two players the correlated reduction, with
    more the cells of _by_cells). The class is checked before the beliefs,
    so an empty belief set does not hide a bad one.

    Every class holds the point masses on joint opponent strategies, so a pure
    best response answers yes. Every class lies inside the correlated beliefs,
    which Pearce's LP in _pearce decides with a checked certificate either
    way; only independent beliefs of three or more players search further.
    """
    if not (comparison.game is beliefs_in.game is game):
        raise ValueError("restriction belongs to a different game")
    return s_i in best_responses(beliefs_in, i, comparison.sets[i], (s_i,), belief_class)


def best_responses(beliefs_in, i, rivals, candidates, belief_class="pure"):
    """The candidates that is_best_response accepts against the frozenset of
    rivals, given the restriction beliefs_in, decided together.
    By Pearce's lemma the correlated ones, and the mixed ones of two players,
    are those undominated by mixtures; with more players _by_cells decides
    the mixed ones that are no pure best response."""
    if belief_class not in ("pure", "correlated", "mixed"):
        raise BeliefClassError(f"unknown belief class {belief_class!r}")
    rows = beliefs_in.rows(i)
    if belief_class == "pure" or not rivals:
        return _best_responders(rows, rivals, candidates)[0]
    if belief_class == "correlated" or beliefs_in.game.n == 2:
        return undominated(rows, rivals, candidates, mixed=True)
    kept, rest = _best_responders(rows, rivals, candidates)
    return kept + [s for s in rest if _by_cells(beliefs_in, rows, i, rivals, s)]


# The most cells that _by_cells decides for one strategy. On 1,500 seeded
# random three-player games (random.Random(2026), checks.random_game with
# max_strategies 3-5 and payoff bounds 2, 4 and 9), no decision needed more
# than 111.
CELL_LIMIT = 200


def _by_cells(beliefs_in, rows, i, rivals, s):
    """Is s at least as good as every rival against some product of
    independent mixtures over the opponents' parts of beliefs_in, given
    player i's cut rows on it? Decided exactly, or refused with
    BudgetExceededError after CELL_LIMIT cells.

    Pearce's lemma is exact against one opponent, so the first opponent j is
    left to _pearce, and the other opponents' simplices are cut into cells:
    products of simplices, one per opponent, whose vertices are int vectors
    standing for the distribution vector / sum(vector). The root's vertices
    are the pure strategies. A cell's rows hold, per strategy of j and
    combination c of vertices, the expected payoff against them times the
    product of c's sums: a positive factor per column, which changes no
    decision, so the root's rows are the cut rows.
    - A rival's gain over s is multilinear in the mixtures, so a mixture
      over the rivals that strictly beats s on every column of a cell beats
      it at every product belief in the cell: the cell is empty.
    - Otherwise s is tried at points y of the cell: the marginals of the
      LP's belief, each vertex combination, and the barycentre. Against y
      the rows have one column per strategy of j, and _pearce keeping s
      there gives a mixture x of j, so s is a best response to (x, y).
    - Else the cell's longest edge is cut at its midpoint, and both halves
      wait in a first-in, first-out queue.
    s is eliminated when every cell is empty. A survival that needs an
    irrational belief is never proven, and ends at the limit.
    """
    mine = rows[s]
    if not mine:
        return False
    game = beliefs_in.game
    sizes = [len(beliefs_in.sets[j]) for j in range(game.n) if j != i][1:]
    width = math.prod(sizes)
    support = sorted(rivals)
    # each cut row in blocks, one per strategy of j, over the later opponents' profiles
    blocks = {t: [rows[t][a : a + width] for a in range(0, len(mine), width)]
              for t in support + [s]}

    def rows_at(points):  # per strategy, one entry per block and point
        weights = [[math.prod(p) for p in itertools.product(*point)] for point in points]
        return {t: tuple(_dot(w, block) for block in row for w in weights)
                for t, row in blocks.items()}

    cells = deque([tuple(tuple(tuple(int(a == b) for b in range(n)) for a in range(n))
                         for n in sizes)])
    decided = 0
    while cells:
        if decided == CELL_LIMIT:
            raise BudgetExceededError(
                f"player {i + 1}'s strategy {game.name(i, s)!r} is still undecided after "
                f"{CELL_LIMIT} cells of independent beliefs"
            )
        decided += 1
        cell = cells.popleft()
        combos = list(itertools.product(*cell))
        mixture, belief = _pearce(rows_at(combos), support, s)
        if mixture is not None:
            continue
        # the belief's weight on each combination, times its column factor
        mass = [sum(belief[c :: len(combos)]) * math.prod(map(sum, combo))
                for c, combo in enumerate(combos)]
        points = [tuple(_mean(vertices, mass) for vertices in zip(*combos))]
        points += combos + [tuple(_mean(vertices, [1] * len(vertices)) for vertices in cell)]
        if any(_pearce(rows_at([y]), support, s)[0] is None for y in points):
            return True
        edges = [(k, a, b) for k, vertices in enumerate(cell)
                 for a, b in itertools.combinations(range(len(vertices)), 2)]
        k, a, b = max(edges, key=lambda e: _length(cell[e[0]][e[1]], cell[e[0]][e[2]]))
        middle = _mean((cell[k][a], cell[k][b]), (1, 1))
        for end in a, b:
            halved = cell[k][:end] + (middle,) + cell[k][end + 1 :]
            cells.append(cell[:k] + (halved,) + cell[k + 1 :])
    return False


def _mean(points, weights):
    """The mixture sum_k weights[k] * points[k] / sum(points[k]) of int
    vectors, as the coprime int vector that stands for it; some weight is
    positive."""
    scale = math.lcm(*map(sum, points))
    total = [0] * len(points[0])
    for point, weight in zip(points, weights):
        factor = weight * (scale // sum(point))
        total = [x + factor * y for x, y in zip(total, point)]
    g = math.gcd(*total)
    return tuple(x // g for x in total)


def _length(p, q):
    """The squared distance between the distributions of two int vectors."""
    sp, sq = sum(p), sum(q)
    return Fraction(sum((x * sq - y * sp) ** 2 for x, y in zip(p, q)), (sp * sq) ** 2)
