"""The modal fixpoint language, the first-order optimality language, and a
checker for the three-rule derivation system built on them.

Both parsers are recursive descent over a small token stream. Implication,
disjunction, bounded quantifiers and strict comparisons are surface sugar,
desugared at parse time to the primitive connectives, so structural equality
of syntax trees is equality of primitive forms.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace
from typing import Optional

from .epistemic import box, every_event, optimality_event, rationality_event, restriction_of
from .games import BudgetExceededError, LineFormatError, text_lines
from .operators import NotShrinkingError, descend


class LogicParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class LogicEvalError(ValueError):
    pass


# ---------- modal fixpoint language: syntax ----------


@dataclass(frozen=True)
class Rat:
    player: Optional[int]  # None means every player


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class NotF:
    sub: object


@dataclass(frozen=True)
class AndF:
    left: object
    right: object


@dataclass(frozen=True)
class Box:
    player: Optional[int]
    sub: object


@dataclass(frozen=True)
class Opt:
    player: Optional[int]
    sub: object


@dataclass(frozen=True)
class Nu:
    body: object


# ---------- first-order optimality language: syntax ----------


@dataclass(frozen=True)
class Member:
    var: str


@dataclass(frozen=True)
class Cmp:
    player: int
    left: str
    ctx: str
    right: str


@dataclass(frozen=True)
class NotO:
    sub: object


@dataclass(frozen=True)
class AndO:
    left: object
    right: object


@dataclass(frozen=True)
class ExistsO:
    var: str
    body: object


# ---------- syntax trees of both languages ----------

# The formula-valued fields of each connective, in printing order; atoms
# (Rat, Var, Member, Cmp) have none.
_CHILD_FIELDS = {
    NotF: ("sub",),
    AndF: ("left", "right"),
    Box: ("sub",),
    Opt: ("sub",),
    Nu: ("body",),
    NotO: ("sub",),
    AndO: ("left", "right"),
    ExistsO: ("body",),
}


def children(f):
    """The immediate subformulas of a node of either language."""
    return tuple(getattr(f, name) for name in _CHILD_FIELDS.get(type(f), ()))


def walk(f):
    """Every node of a formula, parents before their subformulas."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


# ---------- modal fixpoint language ----------


def impl(a, b):
    return NotF(AndF(a, NotF(b)))


def common_belief(f):
    """CB(f) desugars to the greatest fixpoint of 'everyone believes x and f'."""
    return Nu(Box(None, AndF(Var(), f)))


def contains_nu(f):
    return any(isinstance(node, Nu) for node in walk(f))


def has_free_var(f):
    if isinstance(f, Var):
        return True
    # a fixpoint binds its variable
    return not isinstance(f, Nu) and any(has_free_var(c) for c in children(f))


def var_positive(f, parity=0):
    """Every free fixpoint-variable occurrence under an even number of '!'."""
    if isinstance(f, Var):
        return parity % 2 == 0
    if isinstance(f, Nu):
        return True  # its variable is its own
    parity += isinstance(f, NotF)
    return all(var_positive(c, parity) for c in children(f))


def subst(f, replacement):
    """Replace free occurrences of the fixpoint variable."""
    if isinstance(f, Var):
        return replacement
    if isinstance(f, Nu):
        return f  # bound variable
    return replace(
        f,
        **{
            name: subst(getattr(f, name), replacement)
            for name in _CHILD_FIELDS.get(type(f), ())
        },
    )


def pretty(f):
    if isinstance(f, Rat):
        return "rat" if f.player is None else f"rat_{f.player + 1}"
    if isinstance(f, Var):
        return "x"
    if isinstance(f, NotF):
        if isinstance(f.sub, AndF) and isinstance(f.sub.right, NotF):
            return f"({_operand(f.sub.left)} -> {pretty(f.sub.right.sub)})"
        return f"!{_wrap(f.sub)}"
    if isinstance(f, AndF):
        return f"({_operand(f.left)} & {_operand(f.right)})"
    if isinstance(f, Box):
        mod = "Box" if f.player is None else f"Box_{f.player + 1}"
        return f"{mod} {_wrap(f.sub)}"
    if isinstance(f, Opt):
        mod = "O" if f.player is None else f"O_{f.player + 1}"
        return f"{mod} {_wrap(f.sub)}"
    if isinstance(f, Nu):
        return f"nu x. {pretty(f.body)}"
    raise TypeError(f"not a formula: {f!r}")


def _operand(f):
    # A fixpoint's body runs to the closing parenthesis, so a fixpoint that
    # is not the last operand would swallow the rest; the parser also reads
    # none after '&'.
    text = pretty(f)
    return f"({text})" if isinstance(f, Nu) else text


def _wrap(f):
    text = pretty(f)
    if isinstance(f, (Rat, Var)) or text.startswith("("):
        return text
    return f"({text})"


_LNU_TOKEN = re.compile(r"\s*(?:(->)|([&!().])|([A-Za-z][A-Za-z0-9_]*))")
_LNU_NAME = re.compile(r"^(rat|Box|O|CB|nu|x)(?:_([1-9][0-9]*))?$")


def _lex(text, pattern, token):
    """The (kind, value, position) tokens of text, each read by token(m) from
    one match of pattern, and an 'end' token."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
        if not m:
            break
        tokens.append(token(m))
        pos = m.end()
    rest = text[pos:].lstrip()
    if rest:
        raise LogicParseError(f"bad character {rest[0]!r}", len(text) - len(rest))
    tokens.append(("end", None, len(text)))
    return tokens


def _lnu_token(m):
    if m.group(1):
        return ("->", None, m.start(1))
    if m.group(2):
        return (m.group(2), None, m.start(2))
    name = m.group(3)
    nm = _LNU_NAME.match(name)
    if not nm:
        raise LogicParseError(f"unknown name {name!r}", m.start(3))
    base, sub = nm.group(1), nm.group(2)
    if base in ("x", "nu", "CB") and sub is not None:
        raise LogicParseError(f"{base} takes no subscript", m.start(3))
    return (base, None if sub is None else int(sub) - 1, m.start(3))


class _TokenCursor:
    """A recursive-descent parser's place in its (kind, value, position)
    tokens, which end with an 'end' token."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def eat(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise LogicParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        self.pos += 1
        return tok


class _LnuParser(_TokenCursor):
    def formula(self):
        if self.peek()[0] == "nu":
            start = self.eat()
            self.eat("x")
            self.eat(".")
            body = self.formula()
            if contains_nu(body):
                raise LogicParseError("nested fixpoints are not allowed", start[2])
            if not var_positive(body):
                raise LogicParseError(
                    "fixpoint variable occurs under an odd number of negations",
                    start[2],
                )
            return Nu(body)
        return self.implication()

    def implication(self):
        left = self.conjunction()
        if self.peek()[0] == "->":
            self.eat()
            return impl(left, self.formula())
        return left

    def conjunction(self):
        node = self.unary()
        while self.peek()[0] == "&":
            self.eat()
            node = AndF(node, self.unary())
        return node

    def unary(self):
        kind, player, pos = self.peek()
        if kind == "!":
            self.eat()
            return NotF(self.unary())
        if kind == "Box":
            self.eat()
            return Box(player, self.unary())
        if kind == "O":
            self.eat()
            return Opt(player, self.unary())
        return self.atom()

    def atom(self):
        kind, player, pos = self.peek()
        if kind == "rat":
            self.eat()
            return Rat(player)
        if kind == "x":
            self.eat()
            return Var()
        if kind == "CB":
            self.eat()
            self.eat("(")
            inner = self.formula()
            self.eat(")")
            if has_free_var(inner):
                raise LogicParseError("CB(f) binds x, so f may not mention a free x", pos)
            if contains_nu(inner):
                raise LogicParseError("nested fixpoints are not allowed", pos)
            return common_belief(inner)
        if kind == "(":
            self.eat()
            inner = self.formula()
            self.eat(")")
            return inner
        raise LogicParseError(f"unexpected {kind!r}", pos)


def parse_lnu(text):
    parser = _LnuParser(_lex(text, _LNU_TOKEN, _lnu_token))
    node = parser.formula()
    parser.eat("end")
    return node


def _check_player(player, game):
    if player is not None and not 0 <= player < game.n:
        raise LogicEvalError(f"formula names player {player + 1}; the game has {game.n}")


def lnu_denotation(model, formula, profile=None):
    """The formula's meaning on the model: a map from the event a free
    fixpoint variable denotes (None if it has none) to the event where the
    formula holds. Needs a profile for rat and O.

    The formula is compiled once, and over all calls of the map each
    player's rationality event is computed at most once, and its optimality
    event at most once per restriction. Greatest fixpoints are
    computed by downward iteration; a non-shrinking step means the body is not
    monotone for the supplied properties (possible despite syntactic
    positivity when a non-monotone property sits under O) and raises instead
    of converging to a wrong answer.
    """
    rat_cache = {}
    opt_cache = {}  # (player, restriction's sets) -> optimality event

    def rat_of(i):
        if i not in rat_cache:
            if profile is None:
                raise LogicEvalError("formula mentions rat but no profile was supplied")
            rat_cache[i] = rationality_event(model, profile[i])
        return rat_cache[i]

    everything = model.all_event()

    def compile_node(f):
        if isinstance(f, (Rat, Box, Opt)):
            _check_player(f.player, model.game)
        if isinstance(f, Rat):
            players = range(model.game.n) if f.player is None else (f.player,)

            def rat(xval):
                event = everything
                for i in players:
                    event &= rat_of(i)
                return event

            return rat
        if isinstance(f, Var):

            def var(xval):
                if xval is None:
                    raise LogicEvalError("free fixpoint variable outside nu")
                return xval

            return var
        if isinstance(f, NotF):
            sub = compile_node(f.sub)
            return lambda xval: everything - sub(xval)
        if isinstance(f, AndF):
            left, right = compile_node(f.left), compile_node(f.right)
            return lambda xval: left(xval) & right(xval)
        if isinstance(f, Box):
            sub, player = compile_node(f.sub), f.player
            return lambda xval: box(model, sub(xval), player)
        if isinstance(f, Opt):
            sub = compile_node(f.sub)
            players = range(model.game.n) if f.player is None else (f.player,)

            def opt(xval):
                if profile is None:
                    raise LogicEvalError("formula mentions O but no profile was supplied")
                G = restriction_of(model, sub(xval))
                event = everything
                for i in players:
                    key = (i, G.sets)
                    if key not in opt_cache:
                        opt_cache[key] = optimality_event(model, profile[i], G)
                    event &= opt_cache[key]
                return event

            return opt
        if isinstance(f, Nu):
            body = compile_node(f.body)

            def nu(xval):
                try:
                    return descend(everything, body, operator.le)[-1]
                except NotShrinkingError:
                    raise LogicEvalError(
                        "fixpoint iteration is not shrinking; "
                        "a property under O is not monotone"
                    ) from None

            return nu
        raise TypeError(f"not a formula: {f!r}")

    return compile_node(formula)


def eval_lnu(model, formula, profile=None, x_event=None):
    """The event where a formula holds; a free fixpoint variable, if any,
    denotes x_event. See lnu_denotation."""
    return lnu_denotation(model, formula, profile)(x_event)


def find_validity_counterexample(formula, instances):
    """First (model, profile) where the formula fails somewhere, else None."""
    for model, profile in instances:
        if eval_lnu(model, formula, profile) != model.all_event():
            return model, profile
    return None


def check_rat_definability(model, profile, budget_states=12):
    """rat_i must equal 'every believed event is an optimality event', with the
    set quantifier ranging over all events of the finite model."""
    # many events share a strategy image, hence a restriction and its
    # optimality event
    restrictions = [(X, restriction_of(model, X)) for X in every_event(model, budget_states)]
    everything = model.all_event()
    for i in range(model.game.n):
        lhs = rationality_event(model, profile[i])
        optimal_in = {}
        rhs = everything
        for X, G in restrictions:
            if G not in optimal_in:
                optimal_in[G] = optimality_event(model, profile[i], G)
            rhs &= (everything - box(model, X, i)) | optimal_in[G]
        if lhs != rhs:
            return False
    return True


# ---------- first-order optimality language ----------


def o_impl(a, b):
    return NotO(AndO(a, NotO(b)))


def o_or(a, b):
    return NotO(AndO(NotO(a), NotO(b)))


def o_forall(var, body):
    return NotO(ExistsO(var, NotO(body)))


_LO_TOKEN = re.compile(
    r"\s*(?:(->)|(>=\^([1-9][0-9]*)_([A-Za-z][A-Za-z0-9_]*))"
    r"|(>\^([1-9][0-9]*)_([A-Za-z][A-Za-z0-9_]*))"
    r"|([|&!()])|([A-Za-z][A-Za-z0-9_]*))"
)
_LO_KEYWORDS = ("exists", "forall", "in", "X")


def _lo_token(m):
    if m.group(1):
        return ("->", None, m.start(1))
    if m.group(2):
        return ("ge", (int(m.group(3)) - 1, m.group(4)), m.start(2))
    if m.group(5):
        return ("gt", (int(m.group(6)) - 1, m.group(7)), m.start(5))
    if m.group(8):
        return (m.group(8), None, m.start(8))
    name = m.group(9)
    return (name if name in _LO_KEYWORDS else "name", name, m.start(9))


class _LoParser(_TokenCursor):
    """Quantifiers scope as far right as possible; parenthesize to stop them."""

    def formula(self):
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.eat()
            return o_impl(left, self.formula())
        return left

    def disjunction(self):
        node = self.conjunction()
        while self.peek()[0] == "|":
            self.eat()
            node = o_or(node, self.conjunction())
        return node

    def conjunction(self):
        node = self.unary()
        while self.peek()[0] == "&":
            self.eat()
            node = AndO(node, self.unary())
        return node

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "!":
            self.eat()
            return NotO(self.unary())
        if kind in ("exists", "forall"):
            return self.quantifier()
        return self.atom()

    def quantifier(self):
        kind, _, pos = self.eat()
        var_tok = self.eat("name")
        var = var_tok[1]
        bounded = False
        if self.peek()[0] == "in":
            self.eat()
            self.eat("X")
            bounded = True
        body = self.formula()
        if kind == "exists":
            return ExistsO(var, AndO(Member(var), body) if bounded else body)
        inner = o_impl(Member(var), body) if bounded else body
        return o_forall(var, inner)

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "(":
            self.eat()
            inner = self.formula()
            self.eat(")")
            return inner
        if kind == "name":
            self.eat()
            nxt, payload, npos = self.peek()
            if nxt == "in":
                self.eat()
                self.eat("X")
                return Member(value)
            if nxt == "ge":
                self.eat()
                player, ctx = payload
                right = self.eat("name")[1]
                return Cmp(player, value, ctx, right)
            if nxt == "gt":
                self.eat()
                player, ctx = payload
                right = self.eat("name")[1]
                return NotO(Cmp(player, right, ctx, value))
            raise LogicParseError("expected 'in X' or a comparison", npos)
        raise LogicParseError(f"unexpected {kind!r}", pos)


def parse_lo(text):
    parser = _LoParser(_lex(text, _LO_TOKEN, _lo_token))
    node = parser.formula()
    parser.eat("end")
    return node


def lo_free_vars(f):
    if isinstance(f, Member):
        return {f.var}
    if isinstance(f, Cmp):
        return {f.left, f.ctx, f.right}
    free = set().union(*(lo_free_vars(c) for c in children(f)))
    return free - {f.var} if isinstance(f, ExistsO) else free


def check_positive_lo(f, parity=0):
    """Positive: every set-variable occurrence under an even number of '!'."""
    if isinstance(f, Member):
        return parity % 2 == 0
    parity += isinstance(f, NotO)
    return all(check_positive_lo(c, parity) for c in children(f))


_UNBOUND = object()


def _compile_lo(model, formula):
    """Compile a condition for one model into a test run(env, X) of an
    assignment of states to variables (a dict, restored after the run) and an
    event X.

    One closure per node, called with env, X and the model's states in X in
    ascending order, which run lists once. A comparison x >=^i_z y reads
    player i's kernel rows of the strategies i plays at x and y at the flat
    index of the opponents' profile at z; the kernel scales each player's
    payoffs by a positive factor, so the comparison is exact. A bounded
    quantifier, exists v in X phi (and forall v in X phi, which parses to
    !exists v !!(v in X & !phi)), loops over the states in X alone: the
    states outside X fail its membership test before phi is reached. Other
    quantifiers loop over every state. Unbound variables raise where the
    evaluation reaches them.
    """
    game = model.game
    states = model.states()

    def contexts(i):
        # per state, the flat index of the opponents' profile in i's kernel rows
        flat = [0] * model.num_states
        for j in range(game.n):
            if j != i:
                k = game.strategy_count(j)
                flat = [c * k + s for c, s in zip(flat, model.assignment[j])]
        return flat

    def compile_node(f):
        if isinstance(f, Member):
            var = f.var

            def member(env, X, inside):
                try:
                    return env[var] in X
                except KeyError:
                    raise LogicEvalError(f"unbound variable {var!r}") from None

            return member
        if isinstance(f, Cmp):
            _check_player(f.player, game)
            rows, own, ctx = game.kernel[f.player], model.assignment[f.player], contexts(f.player)
            left, mid, right = f.left, f.ctx, f.right

            def cmp(env, X, inside):
                try:
                    c = ctx[env[mid]]
                    return rows[own[env[left]]][c] >= rows[own[env[right]]][c]
                except KeyError:
                    missing = next(v for v in (left, mid, right) if v not in env)
                    raise LogicEvalError(f"unbound variable {missing!r}") from None

            return cmp
        if isinstance(f, NotO):
            sub = compile_node(f.sub)
            return lambda env, X, inside: not sub(env, X, inside)
        if isinstance(f, AndO):
            left, right = compile_node(f.left), compile_node(f.right)
            return lambda env, X, inside: left(env, X, inside) and right(env, X, inside)
        if isinstance(f, ExistsO):
            var, body = f.var, f.body
            while isinstance(body, NotO) and isinstance(body.sub, NotO):
                body = body.sub.sub
            bounded = isinstance(body, AndO) and body.left == Member(var)
            body = compile_node(body.right if bounded else body)

            def exists(env, X, inside):
                saved = env.get(var, _UNBOUND)
                found = False
                for w in inside if bounded else states:
                    env[var] = w
                    if body(env, X, inside):
                        found = True
                        break
                if saved is _UNBOUND:
                    env.pop(var, None)
                else:
                    env[var] = saved
                return found

            return exists
        raise TypeError(f"not a formula: {f!r}")

    root = compile_node(formula)
    return lambda env, X: root(env, X, [w for w in states if w in X])


def eval_lo(model, f, assignment, X):
    """Satisfaction at an assignment of states to variables and an event to X."""
    return _compile_lo(model, f)(dict(assignment), X)


LO_TEXTS = {
    "sd_l": "forall y in X exists z in X x >=^{p}_z y",
    "sd_g": "forall y exists z in X x >=^{p}_z y",
    "wd_l": "forall y in X ((forall z in X x >=^{p}_z y) | (exists z in X x >^{p}_z y))",
    "wd_g": "forall y ((forall z in X x >=^{p}_z y) | (exists z in X x >^{p}_z y))",
    "br_l": "exists z in X forall y in X x >=^{p}_z y",
    "br_g": "exists z in X forall y x >=^{p}_z y",
}


def lo_text(name, i):
    return LO_TEXTS[name].format(p=i + 1)


def compile_lo_to_property(formula, game, i, name="compiled"):
    """Turn an optimality condition into a property for player i.

    The free variable picks the strategy (through any state carrying it) and
    X is the product event of the restriction on the standard model of the
    full game.
    """
    from .epistemic import event_of_restriction, standard_model
    from .optimality import OptimalityProperty

    if isinstance(formula, str):
        formula = parse_lo(formula)
    for node in walk(formula):
        if isinstance(node, Cmp) and node.player != i:
            raise ValueError(
                f"comparison for player {node.player + 1} in a condition for player {i + 1}"
            )
    free = lo_free_vars(formula)
    if len(free) != 1:
        raise ValueError(f"need exactly one free variable, found {sorted(free)}")
    (pivot,) = free
    if _free_member_or_ctx(formula, pivot, set()):
        raise ValueError(
            f"free variable {pivot!r} may only appear on the sides of comparisons"
        )

    model = standard_model(game.full_restriction())
    run = _compile_lo(model, formula)
    state_of = {}
    for w in model.states():
        state_of.setdefault(model.strategy_of(i, w), w)

    def rule(G, candidates):
        X = event_of_restriction(model, G)
        return [s for s in candidates if run({pivot: state_of[s]}, X)]

    return OptimalityProperty(name, i, game, rule, monotone=check_positive_lo(formula))


def _free_member_or_ctx(f, pivot, bound):
    """Does the pivot occur free in a membership atom or a context slot?

    Such occurrences would make the compiled property depend on which state
    carries the strategy, so they are rejected.
    """
    if isinstance(f, Member):
        return f.var == pivot and pivot not in bound
    if isinstance(f, Cmp):
        return f.ctx == pivot and pivot not in bound
    if isinstance(f, ExistsO):
        bound = bound | {f.var}
    return any(_free_member_or_ctx(c, pivot, bound) for c in children(f))


# ---------- derivations ----------


class DerivationFormatError(LineFormatError):
    """Raised on malformed derivation files; carries the offending line number."""


@dataclass(frozen=True)
class AxiomStep:
    rule: str  # ratDis or nuDis
    psi: object


@dataclass(frozen=True)
class PropStep:
    premises: tuple
    conclusion: object


@dataclass(frozen=True)
class NuIndStep:
    premise: int
    chi: object
    psi: object


@dataclass(frozen=True)
class StepReport:
    index: int
    ok: bool
    formula: Optional[object]
    reason: str = ""


@dataclass(frozen=True)
class DerivationReport:
    valid: bool
    steps: tuple


_AXIOM_RE = re.compile(r"^axiom\s+(ratDis|nuDis)\s+psi=(.*)$")
_PROP_RE = re.compile(r"^prop\s+from=([0-9]+(?:,[0-9]+)*)\s+conclude=(.*)$")
_NUIND_RE = re.compile(r"^nuInd\s+from=([0-9]+)\s+chi=(.*?)\s+psi=(.*)$")


def parse_derivation(text):
    steps = []
    for lineno, raw in enumerate(text_lines(text), start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            m = _AXIOM_RE.match(stripped)
            if m:
                steps.append(AxiomStep(m.group(1), parse_lnu(m.group(2))))
                continue
            m = _PROP_RE.match(stripped)
            if m:
                premises = tuple(int(tok) for tok in m.group(1).split(","))
                steps.append(PropStep(premises, parse_lnu(m.group(2))))
                continue
            m = _NUIND_RE.match(stripped)
            if m:
                steps.append(
                    NuIndStep(
                        int(m.group(1)), parse_lnu(m.group(2)), parse_lnu(m.group(3))
                    )
                )
                continue
        except LogicParseError as exc:
            raise DerivationFormatError(str(exc), lineno) from None
        raise DerivationFormatError(f"unrecognized step {stripped!r}", lineno)
    if not steps:
        raise DerivationFormatError("empty derivation")
    return tuple(steps)


_ATOM_CAP = 16


def _prop_atoms(f, acc):
    if isinstance(f, (NotF, AndF)):
        for c in children(f):
            _prop_atoms(c, acc)
    elif f not in acc:
        acc.append(f)


def _prop_value(f, values):
    if isinstance(f, NotF):
        return not _prop_value(f.sub, values)
    if isinstance(f, AndF):
        return _prop_value(f.left, values) and _prop_value(f.right, values)
    return values[f]


def propositional_consequence(premises, conclusion):
    """Truth-table entailment treating modal and fixpoint subformulas as atoms."""
    atoms = []
    for f in list(premises) + [conclusion]:
        _prop_atoms(f, atoms)
    if len(atoms) > _ATOM_CAP:
        raise BudgetExceededError(f"{len(atoms)} propositional atoms exceed the cap")
    for bits in range(2 ** len(atoms)):
        values = {a: bool(bits >> k & 1) for k, a in enumerate(atoms)}
        if all(_prop_value(p, values) for p in premises) and not _prop_value(
            conclusion, values
        ):
            return False
    return True


def _nu_wellformed(psi):
    if contains_nu(psi):
        return "fixpoint body contains a nested fixpoint"
    if not var_positive(psi):
        return "fixpoint variable occurs negatively in the body"
    return None


def check_derivation(steps):
    """Validate every step; a derivation is valid when all steps are."""
    derived = []
    reports = []
    for k, step in enumerate(steps, start=1):

        def fail(reason):
            reports.append(StepReport(k, False, None, reason))
            derived.append(None)

        if isinstance(step, AxiomStep):
            if step.rule == "ratDis":
                if has_free_var(step.psi):
                    fail("ratDis instance has a free fixpoint variable")
                    continue
                formula = impl(
                    Rat(None), impl(Box(None, step.psi), Opt(None, step.psi))
                )
            else:
                reason = _nu_wellformed(step.psi)
                if reason:
                    fail(f"nuDis: {reason}")
                    continue
                formula = impl(Nu(step.psi), subst(step.psi, Nu(step.psi)))
            derived.append(formula)
            reports.append(StepReport(k, True, formula))
        elif isinstance(step, PropStep):
            bad = [j for j in step.premises if not 1 <= j < k or derived[j - 1] is None]
            if bad:
                fail(f"premise {bad[0]} is not an earlier valid step")
                continue
            if has_free_var(step.conclusion):
                fail("conclusion has a free fixpoint variable")
                continue
            premises = [derived[j - 1] for j in step.premises]
            if not propositional_consequence(premises, step.conclusion):
                fail("conclusion is not a propositional consequence of the premises")
                continue
            derived.append(step.conclusion)
            reports.append(StepReport(k, True, step.conclusion))
        elif isinstance(step, NuIndStep):
            j = step.premise
            if not 1 <= j < k or derived[j - 1] is None:
                fail(f"premise {j} is not an earlier valid step")
                continue
            if has_free_var(step.chi):
                fail("chi has a free fixpoint variable")
                continue
            reason = _nu_wellformed(step.psi)
            if reason:
                fail(f"nuInd: {reason}")
                continue
            expected = impl(step.chi, subst(step.psi, step.chi))
            if derived[j - 1] != expected:
                fail(
                    f"premise must be {pretty(expected)}, "
                    f"found {pretty(derived[j - 1])}"
                )
                continue
            formula = impl(step.chi, Nu(step.psi))
            derived.append(formula)
            reports.append(StepReport(k, True, formula))
        else:
            fail(f"unknown step type {type(step).__name__}")
    return DerivationReport(all(r.ok for r in reports), tuple(reports))
