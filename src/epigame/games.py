"""Finite strategic games, restrictions, mixed strategies and the game file format."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping


class LineFormatError(ValueError):
    """Malformed input text; carries the offending line number, if any."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class GameFormatError(LineFormatError):
    """Raised on malformed game files; carries the offending line number."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration was refused because the instance is too big."""


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$", re.ASCII)


def parse_rational(token, line=None):
    """Parse an integer or p/q token into a Fraction. Decimals are rejected."""
    if not _RATIONAL_RE.match(token):
        raise GameFormatError(f"not an integer or p/q rational: {token!r}", line)
    return Fraction(token)


class Game:
    """An n-player finite strategic game with exact rational payoffs.

    Strategies are interned to dense indices per player; names are kept for
    I/O. Games compare by identity.

    A game is its integer kernel: ``kernel[i][s]`` holds player i's payoffs
    for own strategy s against each opponent profile in flat order
    (opponents ascending, the last fastest), times a positive factor per
    player, the lcm of that player's denominators, which keeps every
    decision. Every decision reads the kernel, and the LP path re-checks
    its beliefs and mixtures on it. ``table``, from joint profiles to
    Fraction tuples, is the exact view that game_to_text and the payoff
    accessors read. A loaded game is
    built from its kernel by ``from_columns`` and derives the table on first
    use; ``Game(strategy_names, table)`` goes the other way and derives the
    kernel from the table on first use.

    Like ``kernel`` and ``table``, the game keeps one set of cut rows per
    (player, opponents' sets), which every restriction with that opponents'
    part hands out (see ``Restriction.rows``).
    """

    def __init__(self, strategy_names, table):
        self.strategy_names = strategy_names
        self.table = table

    @classmethod
    def from_columns(cls, strategy_names, columns, scales):
        """The game in which player i's payoff at the p-th profile of
        profiles() is columns[i][p] / scales[i], for int columns and
        positive int scales."""
        game = cls.__new__(cls)
        game.strategy_names = strategy_names
        counts = tuple(map(len, strategy_names))
        game.kernel = tuple(_kernel_rows(column, counts, i) for i, column in enumerate(columns))
        game._scales = tuple(scales)
        return game

    @functools.cached_property
    def table(self):
        # only a game built by from_columns gets here; one Fraction per
        # distinct (player, int) is shared by every cell that holds it
        counts = tuple(map(len, self.strategy_names))
        columns = []
        for i, scale in enumerate(self._scales):
            flat = _profile_order(self.kernel[i], counts, i)
            exact = {k: Fraction(k, scale) for k in set(flat)}
            columns.append(map(exact.__getitem__, flat))
        return dict(zip(itertools.product(*map(range, counts)), zip(*columns)))

    @functools.cached_property
    def kernel(self):
        # only a game built from its table gets here
        counts = tuple(map(len, self.strategy_names))
        cells = list(map(self.table.__getitem__, itertools.product(*map(range, counts))))
        kernel = []
        for i, column in enumerate(zip(*cells)):
            # each distinct value object is scaled once
            scaled, _ = _scaled(dict(zip(map(id, column), column)))
            kernel.append(_kernel_rows(list(map(scaled.__getitem__, map(id, column))), counts, i))
        return tuple(kernel)

    @functools.cached_property
    def _cuts(self):
        # per player: opponents' sets -> _CutRows
        return tuple({} for _ in self.strategy_names)

    @property
    def n(self):
        return len(self.strategy_names)

    def strategy_count(self, i):
        return len(self.strategy_names[i])

    def strategies(self, i):
        return range(len(self.strategy_names[i]))

    def name(self, i, s):
        return self.strategy_names[i][s]

    @functools.cached_property
    def _index_sets(self):
        return tuple(frozenset(range(len(names))) for names in self.strategy_names)

    @functools.cached_property
    def _indices(self):
        return tuple({nm: s for s, nm in enumerate(names)} for names in self.strategy_names)

    def index(self, i, name):
        try:
            return self._indices[i][name]
        except KeyError:
            raise KeyError(f"player {i + 1} has no strategy {name!r}") from None

    def profiles(self):
        return itertools.product(*(self.strategies(i) for i in range(self.n)))

    def payoffs(self, profile):
        return self.table[tuple(profile)]

    def payoff(self, i, profile):
        return self.table[tuple(profile)][i]

    def full_restriction(self):
        return Restriction(self, tuple(frozenset(self.strategies(i)) for i in range(self.n)))

    def empty_restriction(self):
        return Restriction(self, tuple(frozenset() for _ in range(self.n)))

    def restriction(self, sets):
        """Build a restriction from per-player iterables of indices or names."""
        fixed = []
        for i, part in enumerate(sets):
            idx = frozenset(s if isinstance(s, int) else self.index(i, s) for s in part)
            fixed.append(idx)
        return Restriction(self, tuple(fixed))


@dataclass(frozen=True)
class Restriction:
    """A product of per-player strategy subsets of an owning game.

    Restrictions of one game form a lattice under componentwise inclusion.
    """

    game: Game
    sets: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.sets) != self.game.n:
            raise ValueError("restriction arity does not match game")
        # the parts key the game's cuts and verdicts, so they must be hashable:
        # frozenset.issubset refuses a part of any other type
        try:
            inside = all(map(frozenset.issubset, self.sets, self.game._index_sets))
        except TypeError:
            inside = None
        if inside is None or type(self.sets) is not tuple:
            raise ValueError("restriction parts must be a tuple of frozensets")
        if not inside:
            for i, part in enumerate(self.sets):  # names the first bad index
                for s in part:
                    if not 0 <= s < self.game.strategy_count(i):
                        raise ValueError(f"strategy index {s} out of range for player {i + 1}")

    def __iter__(self):
        return iter(self.sets)

    def strategies(self, i):
        return sorted(self.sets[i])

    def is_empty(self):
        return any(not part for part in self.sets)

    def is_full(self):
        return all(len(part) == self.game.strategy_count(i) for i, part in enumerate(self.sets))

    def contains_profile(self, profile):
        return all(s in self.sets[i] for i, s in enumerate(profile))

    def profiles(self):
        return itertools.product(*(self.strategies(i) for i in range(self.game.n)))

    def opponent_profiles(self, i):
        """All joint opponent strategies, as tuples ordered by ascending player, skipping i."""
        parts = [self.strategies(j) for j in range(self.game.n) if j != i]
        return itertools.product(*parts)

    def rows(self, i):
        """Player i's kernel rows by own strategy, cut to opponent_profiles(i).

        The rows depend on the opponents' sets alone, so the game keeps one
        _CutRows per (i, opponents' sets): every restriction with that
        opponents' part hands out the same object, with the rows, column
        maxima and verdicts it has gathered.
        """
        others = self.sets[:i] + self.sets[i + 1 :]
        cuts = self.game._cuts[i]
        cut = cuts.get(others)
        if cut is None:
            count = self.game.strategy_count
            opponents = [j for j in range(self.game.n) if j != i]
            if all(len(self.sets[j]) == count(j) for j in opponents):
                gather = None  # every opponent part is full
            else:
                index = [0]
                for j in opponents:
                    width, part = count(j), self.strategies(j)
                    index = [x * width + s for x in index for s in part]
                gather = _gather(index)
            cut = cuts[others] = _CutRows(self.game.kernel[i], gather)
        return cut

    def describe(self):
        g = self.game
        parts = []
        for i, part in enumerate(self.sets):
            names = ",".join(g.name(i, s) for s in sorted(part))
            parts.append("{" + names + "}")
        return " | ".join(parts)


class _CutRows(dict):
    """Kernel rows cut by gather, each on first use (gather None: the kernel
    rows uncut). It also keeps, per rival frozenset, the rivals'
    context-wise maximum (column_max), and, per global builtin that reads
    nothing of its owner's own part, the strategies asked about and those
    it keeps (verdicts, filled by optimality.builtin)."""

    # the game keeps every cut it hands out: no attribute dict per cut
    __slots__ = ("kernel_rows", "gather", "maxima", "verdicts")

    def __init__(self, kernel_rows, gather):
        self.kernel_rows, self.gather = kernel_rows, gather
        self.maxima = {}
        self.verdicts = {}

    def __missing__(self, s):
        row = self.kernel_rows[s]
        if self.gather is not None:
            row = self.gather(row)
        self[s] = row
        return row

    def column_max(self, rivals):
        """The context-wise maximum of the rows of a non-empty frozenset of
        rivals, built once per rival set."""
        best = self.maxima.get(rivals)
        if best is None:
            rows = list(map(self.__getitem__, rivals))
            best = self.maxima[rivals] = rows[0] if len(rows) == 1 else tuple(map(max, *rows))
        return best


def _gather(index):
    """One call that takes the entries at the flat indices from a row, as a
    tuple: itemgetter gives a bare entry for one index and needs at least
    one, so one index or none is a slice."""
    if len(index) > 1:
        return operator.itemgetter(*index)
    return operator.itemgetter(slice(index[0], index[0] + 1) if index else slice(0))


def _kernel_rows(flat, counts, i):
    """Player i's kernel rows from their payoffs in profiles() order."""
    k, after = counts[i], math.prod(counts[i + 1 :])
    # row s: the runs of `after` cells with s in player i's place, one cell
    # each for the last player
    return tuple(
        tuple(flat[s::k]) if after == 1 else tuple(itertools.chain.from_iterable(
            flat[a : a + after] for a in range(s * after, len(flat), k * after)))
        for s in range(k))


def _profile_order(rows, counts, i):
    """Player i's payoffs in profiles() order from their kernel rows; the
    inverse of _kernel_rows."""
    after = math.prod(counts[i + 1 :])
    if after == 1:
        return list(itertools.chain.from_iterable(zip(*rows)))
    return list(itertools.chain.from_iterable(
        row[a : a + after] for a in range(0, len(rows[0]), after) for row in rows))


def full_profile(i, s_i, opponents):
    """Reassemble a joint profile from player i's strategy and an opponent tuple."""
    profile = list(opponents)
    profile.insert(i, s_i)
    return tuple(profile)


def restriction_leq(a, b):
    """Componentwise inclusion a <= b."""
    _require_same_game(a, b)
    return all(x <= y for x, y in zip(a.sets, b.sets))


def _componentwise(fold, restrictions, what):
    rs = list(restrictions)
    if not rs:
        raise ValueError(f"{what} of no restrictions")
    for r in rs:
        _require_same_game(rs[0], r)
    return Restriction(rs[0].game, tuple(fold(*parts) for parts in zip(*(r.sets for r in rs))))


def restriction_meet(restrictions):
    return _componentwise(frozenset.intersection, restrictions, "meet")


def restriction_join(restrictions):
    return _componentwise(frozenset.union, restrictions, "join")


def _require_same_game(a, b):
    if a.game is not b.game:
        raise ValueError("restrictions belong to different games")


def subsets_of(items):
    """All subsets of a collection as frozensets, smallest first."""
    items = sorted(items)
    for k in range(len(items) + 1):
        for combo in itertools.combinations(items, k):
            yield frozenset(combo)


def all_restrictions(game, budget=None):
    """Every restriction of the game. Guarded: 2^(total strategies) many."""
    total = sum(game.strategy_count(i) for i in range(game.n))
    if budget is not None and total > budget:
        raise BudgetExceededError(
            f"{total} strategies in total exceeds the enumeration budget of {budget}"
        )
    per_player = [list(subsets_of(game.strategies(i))) for i in range(game.n)]
    for sets in itertools.product(*per_player):
        yield Restriction(game, tuple(sets))


# ---------- mixed strategies ----------


@dataclass(frozen=True, eq=False)
class MixedStrategy:
    """A probability distribution over one player's strategies."""

    game: Game
    player: int
    weights: Mapping[int, Fraction]

    def __post_init__(self):
        total = Fraction(0)
        for s, w in self.weights.items():
            if not 0 <= s < self.game.strategy_count(self.player):
                raise ValueError(f"strategy index {s} out of range")
            if w < 0:
                raise ValueError("negative weight")
            total += w
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")

    def support(self):
        return frozenset(s for s, w in self.weights.items() if w > 0)


def point_mass(game, player, s):
    return MixedStrategy(game, player, {s: Fraction(1)})


# ---------- game file format ----------


def load_game(text):
    """Parse the plain-text game format.

    players <n>, then one strategies line per player, then one payoff line
    per joint profile. '#' starts a comment.

    A payoff block in profiles() order, the order every writer emits, is
    checked column by column and read straight into the integer kernel. The
    line loop reads any other layout, and names the first faulty line when
    a check fails.
    """
    names, index, body, lines = _game_header(text)
    columns = _payoff_columns(body, names)
    if columns is None:
        return Game(names, _payoff_lines(lines, names, index))
    return Game.from_columns(names, *columns)


def _game_header(text):
    """The strategy names, their indices per player, the text lines after
    the strategies lines, and the numbered token lists after them, which
    the line loop reads."""
    raw = _text_lines(text)
    lines = ((lineno, toks) for lineno, toks in enumerate(map(str.split, raw), start=1) if toks)
    lineno, toks = next(lines, (None, None))
    if toks is None:
        raise GameFormatError("empty game file")
    if toks[0] != "players" or len(toks) != 2:
        raise GameFormatError("expected 'players <n>'", lineno)
    try:
        n = int(toks[1])
    except ValueError:
        raise GameFormatError(f"bad player count {toks[1]!r}", lineno) from None
    if n < 2:
        raise GameFormatError("at least two players required", lineno)

    names: list[tuple[str, ...]] = []
    for i in range(n):
        lineno, toks = next(lines, (lineno, None))
        if toks is None:
            raise GameFormatError(f"missing strategies line for player {i + 1}")
        if toks[0] != "strategies" or len(toks) < 3:
            raise GameFormatError(f"expected 'strategies {i + 1} <name>...'", lineno)
        if toks[1] != str(i + 1):
            raise GameFormatError(f"expected strategies for player {i + 1}, got {toks[1]}", lineno)
        player_names = tuple(toks[2:])
        seen = set()
        for nm in player_names:
            if nm in seen:
                raise GameFormatError(f"duplicate strategy {nm!r} for player {i + 1}", lineno)
            seen.add(nm)
        names.append(player_names)

    index = [{nm: s for s, nm in enumerate(player_names)} for player_names in names]
    return tuple(names), index, raw[lineno:], lines


def _text_lines(text):
    """The lines of a text with '#' comments cut off."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return lines


def _payoff_columns(body, names):
    """Each player's scaled int payoffs in profiles() order and their
    scales, from the text lines after the header; or None if any check
    fails: every non-blank line is 'payoff', n strategies and n rationals,
    and the lines give the profiles in profiles() order.

    Each line is split once, counted and appended to one flat token list,
    which is cut into columns by stride. No line's own token list outlives
    its turn, so large files do not fill the collector's young generation.
    Player j's strategy column must equal each of the player's names
    repeated once per profile of the later players, the whole run cycled:
    that proves every name known and every profile given once. Any other
    layout is left to the line loop, which reads any order.
    """
    n, width, count = len(names), 1 + 2 * len(names), math.prod(map(len, names))
    tokens, widths = [], []
    for toks in map(str.split, body):
        widths.append(len(toks))
        tokens += toks
    if widths.count(width) != count or widths.count(0) != len(body) - count:
        return None
    if tokens[::width].count("payoff") != count:
        return None
    stride = count
    for j, part in enumerate(names):
        cycles = count // stride
        stride //= len(part)
        run = part if stride == 1 else itertools.chain.from_iterable(
            map(itertools.repeat, part, itertools.repeat(stride)))
        if tokens[1 + j :: width] != list(run) * cycles:
            return None
    value_columns = [tokens[1 + n + j :: width] for j in range(n)]
    distinct = list(map(set, value_columns))
    if not all(map(_RATIONAL_RE.match, set().union(*distinct))):
        return None
    columns, scales = [], []
    for column, values in zip(value_columns, distinct):
        scaled, scale = _scaled_ints(values)
        columns.append(list(map(scaled.__getitem__, column)))
        scales.append(scale)
    return columns, scales


def _scaled_ints(tokens):
    """Each distinct value token as an int, times the lcm of the tokens'
    denominators, and that lcm. Tokens without '/' build no Fraction."""
    if "/" not in "".join(tokens):
        return dict(zip(tokens, map(int, tokens))), 1
    return _scaled({t: Fraction(t) for t in tokens})


def _scaled(values):
    """Each Fraction of a mapping as an int, times the lcm of their
    denominators, and that lcm: one player's kernel values and scale."""
    scale = math.lcm(*(v.denominator for v in values.values()))
    return {key: v.numerator * (scale // v.denominator) for key, v in values.items()}, scale


def _payoff_lines(lines, names, index):
    """The payoff table read line by line; raises at the first faulty line."""
    n = len(names)
    table: dict[tuple[int, ...], tuple[Fraction, ...]] = {}
    first_seen: dict[tuple[int, ...], int] = {}
    numbers: dict[str, Fraction] = {}  # each distinct payoff token is parsed once
    for lineno, toks in lines:
        if toks[0] != "payoff":
            raise GameFormatError(f"unexpected directive {toks[0]!r}", lineno)
        if len(toks) != 1 + 2 * n:
            raise GameFormatError(f"payoff line needs {n} strategies and {n} values", lineno)
        profile = tuple(map(dict.get, index, toks[1 : 1 + n]))
        if None in profile:
            i = profile.index(None)
            raise GameFormatError(f"unknown strategy {toks[1 + i]!r} for player {i + 1}", lineno)
        if profile in table:
            raise GameFormatError(
                f"duplicate payoff for profile {' '.join(toks[1 : 1 + n])}"
                f" (first given on line {first_seen[profile]})",
                lineno,
            )
        for tok in toks[1 + n :]:
            if tok not in numbers:
                numbers[tok] = parse_rational(tok, lineno)
        table[profile] = tuple(map(numbers.__getitem__, toks[1 + n :]))
        first_seen[profile] = lineno

    expected = itertools.product(*(range(len(p)) for p in names))
    for profile in expected:
        if profile not in table:
            shown = " ".join(names[i][s] for i, s in enumerate(profile))
            raise GameFormatError(f"missing payoff for profile {shown}")
    return table


def load_game_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return load_game(fh.read())


def require_writable(names, what, written=None):
    """Refuse, naming it, a name that the text formats cannot write and read
    back: one that is empty, holds whitespace or '#', or is repeated in names.
    written, if given, are the indices of the names to check."""
    counts = Counter(names)
    for k in range(len(names)) if written is None else written:
        name = names[k]
        if name.split() != [name] or "#" in name or counts[name] > 1:
            raise ValueError(f"a file cannot hold {what} {name!r}: a name must be "
                             "nonempty, unique and free of whitespace and '#'")


def game_to_text(game):
    """Serialize a game back into the file format (round-trips with load_game)."""
    out = [f"players {game.n}"]
    for i, names in enumerate(game.strategy_names):
        require_writable(names, f"player {i + 1}'s strategy name")
        out.append(f"strategies {i + 1} " + " ".join(names))
    for profile in game.profiles():
        cells = " ".join(game.name(i, s) for i, s in enumerate(profile))
        values = " ".join(str(v) for v in game.payoffs(profile))
        out.append(f"payoff {cells} {values}")
    return "\n".join(out) + "\n"
