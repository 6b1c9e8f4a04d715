"""Both formula languages, their evaluators, and the derivation checker."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from epigame import epistemic
from epigame.checks import (
    BUNDLED_DERIVATION,
    TAMPERED_DERIVATIONS,
    CheckConfig,
    random_game,
    random_l_formula,
    random_positive_body,
)
from epigame.epistemic import (
    EpistemicModel,
    common_box,
    event_of_restriction,
    random_assignment,
    random_belief_model,
    rat_event,
    rationality_event,
    restriction_of,
    standard_model,
)
from epigame.games import BudgetExceededError, Game, full_profile, load_game_file, subsets_of
from epigame.logic import (
    AndF,
    AndO,
    Box,
    Cmp,
    DerivationFormatError,
    ExistsO,
    LogicEvalError,
    LogicParseError,
    Member,
    NotF,
    NotO,
    Nu,
    Opt,
    Rat,
    Var,
    check_derivation,
    check_positive_lo,
    check_rat_definability,
    children,
    common_belief,
    compile_lo_to_property,
    contains_nu,
    eval_lnu,
    eval_lo,
    find_validity_counterexample,
    has_free_var,
    impl,
    lnu_denotation,
    lo_free_vars,
    lo_text,
    LO_TEXTS,
    o_forall,
    o_impl,
    parse_derivation,
    parse_lnu,
    parse_lo,
    pretty,
    propositional_consequence,
    subst,
    var_positive,
    walk,
)
from epigame.optimality import MONOTONE_BUILTINS, profile_named

DATA = Path(__file__).resolve().parents[1] / "data"

PD = load_game_file(DATA / "pd.game")
WDW = load_game_file(DATA / "wd_witness.game")


def _pd_knowledge():
    return standard_model(PD.full_restriction(), correspondences=True)


# ---------- modal language: parsing ----------


def test_parse_atoms_and_modalities():
    assert parse_lnu("rat") == Rat(None)
    assert parse_lnu("rat_2") == Rat(1)
    assert parse_lnu("Box_1 rat") == Box(0, Rat(None))
    assert parse_lnu("O x") == Opt(None, Var())
    assert parse_lnu("!rat & x") == AndF(NotF(Rat(None)), Var())


def test_parse_implication_right_associative():
    f = parse_lnu("rat -> rat_1 -> rat_2")
    assert f == impl(Rat(None), impl(Rat(0), Rat(1)))


def test_conjunction_binds_tighter_than_implication():
    f = parse_lnu("rat_1 & rat_2 -> rat")
    assert f == impl(AndF(Rat(0), Rat(1)), Rat(None))


def test_cb_desugars_to_a_fixpoint():
    assert parse_lnu("CB(rat)") == Nu(Box(None, AndF(Var(), Rat(None))))
    assert parse_lnu("CB(rat)") == common_belief(Rat(None))


def test_nu_wellformedness_enforced_at_parse():
    parse_lnu("nu x. Box(x & rat)")
    parse_lnu("nu x. !!x & rat")  # doubly negated is still positive
    with pytest.raises(LogicParseError):
        parse_lnu("nu x. !x")
    with pytest.raises(LogicParseError):
        parse_lnu("nu x. nu x. x")


@pytest.mark.parametrize("text", ["CB(x)", "CB(rat & x)", "rat & CB(Box x)"])
def test_common_belief_refuses_a_free_x(text):
    # CB(f) is nu x. Box(x & f): an x in f would be captured by that binder
    with pytest.raises(LogicParseError, match="free x"):
        parse_lnu(text)


@pytest.mark.parametrize("parse, text, pos, char", [
    (parse_lnu, "rat @", 4, "@"), (parse_lnu, "Box_1(rat)$x", 10, "$"),
    (parse_lo, "x ? y", 2, "?"), (parse_lo, "x in X ~", 7, "~"),
])
def test_a_bad_character_is_named_at_its_position(parse, text, pos, char):
    with pytest.raises(LogicParseError) as info:
        parse(text)
    assert (str(info.value), info.value.pos) == (f"at position {pos}: bad character {char!r}", pos)


def test_parse_errors_carry_positions():
    with pytest.raises(LogicParseError) as info:
        parse_lnu("foo")
    assert info.value.pos == 0
    with pytest.raises(LogicParseError) as info:
        parse_lnu("rat @")
    assert "bad character '@'" in str(info.value)
    with pytest.raises(LogicParseError):
        parse_lnu("rat &")
    with pytest.raises(LogicParseError):
        parse_lnu("(rat")
    with pytest.raises(LogicParseError):
        parse_lnu("x_2")  # the fixpoint variable takes no subscript
    with pytest.raises(LogicParseError):
        parse_lnu("CB_1(rat)")


def test_structural_helpers():
    f = parse_lnu("nu x. Box(x & rat)")
    assert contains_nu(f) and not has_free_var(f)
    assert has_free_var(parse_lnu("O x"))
    assert var_positive(parse_lnu("Box x"))
    assert not var_positive(NotF(Var()))
    # substitution only touches free occurrences
    g = AndF(Var(), Nu(AndF(Var(), Rat(None))))
    assert subst(g, Rat(0)) == AndF(Rat(0), Nu(AndF(Var(), Rat(None))))


def test_walk_covers_both_languages_parents_first():
    f = parse_lnu("nu x. Box(x & !rat)")
    kinds = [type(node) for node in walk(f)]
    assert kinds == [Nu, Box, AndF, Var, NotF, Rat]
    g = parse_lo("exists z in X x >=^1_z y")
    assert [type(node) for node in walk(g)] == [ExistsO, AndO, Member, Cmp]
    assert children(Rat(None)) == () and children(Member("x")) == ()


def test_pretty_round_trips():
    rng = random.Random(17)
    for _ in range(60):
        f = random_l_formula(rng, PD)
        cb = common_belief(f)
        nu = Nu(random_positive_body(rng, PD))
        for g in (f, cb, nu, AndF(cb, f), AndF(f, nu), impl(cb, nu), impl(nu, f), Box(0, nu)):
            assert parse_lnu(pretty(g)) == g, pretty(g)


@pytest.mark.parametrize("text", ["CB(nu x. Box(x & rat))", "CB(CB(rat))", "CB(rat & (nu x. O x))"])
def test_common_belief_refuses_a_fixpoint_inside(text):
    # written out, CB(f) with a fixpoint in f is a nested fixpoint
    with pytest.raises(LogicParseError, match="nested fixpoints are not allowed"):
        parse_lnu(text)


def test_pretty_resugars_implication():
    text = pretty(impl(Rat(None), Opt(None, Var())))
    assert "->" in text and "!" not in text


# ---------- modal language: evaluation ----------


def test_eval_rat_and_box():
    model = _pd_knowledge()
    profile = profile_named(PD, "sd_g")
    rat1 = eval_lnu(model, parse_lnu("rat_1"), profile)
    assert rat1 == rationality_event(model, profile[0])
    # players know their own strategy, hence their own rationality
    assert eval_lnu(model, parse_lnu("Box_1 rat_1"), profile) == rat1
    assert eval_lnu(model, parse_lnu("rat"), profile) == rat_event(model, profile)


def test_eval_common_belief_matches_common_box():
    model = _pd_knowledge()
    profile = profile_named(PD, "sd_g")
    got = eval_lnu(model, parse_lnu("CB(rat)"), profile)
    assert got == common_box(model, rat_event(model, profile))


def test_eval_survival_fixpoint_on_standard_model():
    model = standard_model(PD.full_restriction())
    event = eval_lnu(model, parse_lnu("nu x. O x"), profile_named(PD, "sd_l"))
    assert event == frozenset({model.state_index("D,D")})


def test_eval_free_variable_event():
    model = standard_model(PD.full_restriction())
    E = frozenset({0, 3})
    assert eval_lnu(model, parse_lnu("x"), x_event=E) == E
    assert eval_lnu(model, parse_lnu("!x"), x_event=E) == model.all_event() - E


def test_eval_guards():
    model = standard_model(PD.full_restriction())
    with pytest.raises(LogicEvalError):
        eval_lnu(model, parse_lnu("rat"))
    with pytest.raises(LogicEvalError):
        eval_lnu(model, parse_lnu("O rat"), None)
    with pytest.raises(LogicEvalError):
        eval_lnu(model, parse_lnu("x"))


def test_eval_detects_nonmonotone_iteration():
    """wd_g holds vacuously on an empty context, so the fixpoint body can grow."""
    a, d = WDW.index(0, "a"), WDW.index(1, "d")
    model = EpistemicModel(WDW, ("w",), ((a,), (d,)))
    with pytest.raises(LogicEvalError) as info:
        eval_lnu(model, parse_lnu("nu x. O x"), profile_named(WDW, "wd_g"))
    assert "not shrinking" in str(info.value) or "monotone" in str(info.value)


def test_find_validity_counterexample():
    model = _pd_knowledge()
    profile = profile_named(PD, "sd_g")
    instances = [(model, profile)]
    assert find_validity_counterexample(parse_lnu("rat -> rat"), instances) is None
    found = find_validity_counterexample(parse_lnu("rat"), instances)
    assert found == (model, profile)


def test_lnu_denotation_is_eval_lnu_with_one_rationality_event_per_player(monkeypatch):
    real = rationality_event
    calls = Counter()

    def counting(model, prop):
        calls[prop.player] += 1
        return real(model, prop)

    monkeypatch.setattr("epigame.logic.rationality_event", counting)
    rng = random.Random(23)
    cfg = CheckConfig()
    for _ in range(30):
        game = random_game(rng, cfg, rng.randint(2, 3))
        model = random_belief_model(rng, game, 4)
        profile = profile_named(game, rng.choice(MONOTONE_BUILTINS))
        body = random_positive_body(rng, game)
        events = list(subsets_of(model.states()))
        for formula in (body, Nu(body)):
            calls.clear()
            denotation = lnu_denotation(model, formula, profile)
            got = [denotation(F) for F in events]
            assert max(calls.values(), default=0) <= 1
            assert got == [eval_lnu(model, formula, profile, x_event=F) for F in events]


def test_players_out_of_range_are_refused_when_compiled():
    model = _pd_knowledge()
    profile = profile_named(PD, "sd_g")
    for text, named in (("Box_9(rat)", 9), ("rat_3", 3), ("O_5(rat)", 5), ("x & !rat_3", 3)):
        with pytest.raises(LogicEvalError) as info:
            lnu_denotation(model, parse_lnu(text), profile)
        assert str(info.value) == f"formula names player {named}; the game has 2"
    with pytest.raises(LogicEvalError) as info:
        eval_lo(model, parse_lo("x >=^4_x x"), {"x": 0}, model.all_event())
    assert str(info.value) == "formula names player 4; the game has 2"


def _unmemoised_rat_definability(model, profile):
    """The definability check with one optimality event per event X."""
    for i in range(model.game.n):
        rhs = model.all_event()
        for X in subsets_of(model.states()):
            optimal = epistemic.optimality_event(model, profile[i], restriction_of(model, X))
            rhs &= (model.all_event() - epistemic.box(model, X, i)) | optimal
        if rationality_event(model, profile[i]) != rhs:
            return False
    return True


def test_rat_definability_computes_one_optimality_event_per_restriction(monkeypatch):
    real = epistemic.optimality_event
    calls = Counter()

    def counting(model, prop, restriction=None):
        calls[prop.player] += 1
        return real(model, prop, restriction)

    monkeypatch.setattr("epigame.logic.optimality_event", counting)
    rng = random.Random(31)
    cfg = CheckConfig()
    answers = set()
    for _ in range(30):
        game = random_game(rng, cfg, rng.randint(2, 3))
        model = random_belief_model(rng, game, 5)
        profile = profile_named(game, rng.choice(("sd_g", "br_g", "br_l", "wd_l")))
        distinct = {restriction_of(model, X) for X in subsets_of(model.states())}
        calls.clear()
        got = check_rat_definability(model, profile)
        assert got == _unmemoised_rat_definability(model, profile)
        assert set(calls.values()) == {len(distinct)}
        if got:
            assert set(calls) == set(range(game.n))
        answers.add(got)
    assert answers == {True, False}


def test_rat_definability():
    """The event quantifier ranges over supersets of the believed event, so the
    definition matches exactly for monotone properties."""
    model = _pd_knowledge()
    for name in ("sd_g", "msd_g", "br_g"):
        assert check_rat_definability(model, profile_named(PD, name)), name
    assert not check_rat_definability(model, profile_named(PD, "br_l"))
    with pytest.raises(BudgetExceededError):
        check_rat_definability(model, profile_named(PD, "sd_g"), budget_states=2)


# ---------- optimality condition language ----------


def test_parse_lo_ast_shape():
    f = parse_lo("forall y in X exists z in X x >=^1_z y")
    body = ExistsO("z", AndO(Member("z"), Cmp(0, "x", "z", "y")))
    assert f == o_forall("y", o_impl(Member("y"), body))


def test_parse_lo_strict_comparison_desugars():
    assert parse_lo("x >^1_z y") == NotO(Cmp(0, "y", "z", "x"))


def test_quantifiers_scope_maximally():
    wide = parse_lo("exists z in X x >=^1_z x & y in X")
    assert wide == ExistsO(
        "z", AndO(Member("z"), AndO(Cmp(0, "x", "z", "x"), Member("y")))
    )
    narrow = parse_lo("(exists z in X x >=^1_z x) & y in X")
    assert narrow == AndO(
        ExistsO("z", AndO(Member("z"), Cmp(0, "x", "z", "x"))), Member("y")
    )


def test_lo_parse_errors():
    with pytest.raises(LogicParseError):
        parse_lo("x >=^1_z")  # missing right side
    with pytest.raises(LogicParseError):
        parse_lo("x ? y")
    with pytest.raises(LogicParseError):
        parse_lo("forall x >=^1_z y")  # quantifier needs a plain variable
    with pytest.raises(LogicParseError):
        parse_lo("x")


def test_lo_free_vars_and_positivity():
    for name in ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g"):
        assert lo_free_vars(parse_lo(lo_text(name, 0))) == {"x"}, name
    positive = {
        name
        for name in ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g")
        if check_positive_lo(parse_lo(lo_text(name, 0)))
    }
    assert positive == {"sd_g", "br_g"}


def test_eval_lo_directly():
    model = standard_model(PD.full_restriction())
    f = parse_lo(lo_text("sd_g", 0))
    X = event_of_restriction(model, PD.full_restriction())
    state_of = {model.strategy_of(0, w): w for w in reversed(list(model.states()))}
    assert not eval_lo(model, f, {"x": state_of[0]}, X)  # C loses to D
    assert eval_lo(model, f, {"x": state_of[1]}, X)
    with pytest.raises(LogicEvalError):
        eval_lo(model, f, {}, X)


# ---------- the compiled first-order evaluator against a tree walker ----------


def _walker_eval_lo(model, f, assignment, X):
    """The plain tree walker over the syntax, with Fraction payoffs."""

    def ev(f, asg):
        if isinstance(f, Member):
            if f.var not in asg:
                raise LogicEvalError(f"unbound variable {f.var!r}")
            return asg[f.var] in X
        if isinstance(f, Cmp):
            for v in (f.left, f.ctx, f.right):
                if v not in asg:
                    raise LogicEvalError(f"unbound variable {v!r}")
            game = model.game
            i = f.player
            wz = asg[f.ctx]
            ctx = tuple(model.strategy_of(j, wz) for j in range(game.n) if j != i)
            a = game.payoff(i, full_profile(i, model.strategy_of(i, asg[f.left]), ctx))
            b = game.payoff(i, full_profile(i, model.strategy_of(i, asg[f.right]), ctx))
            return a >= b
        if isinstance(f, NotO):
            return not ev(f.sub, asg)
        if isinstance(f, AndO):
            return ev(f.left, asg) and ev(f.right, asg)
        if isinstance(f, ExistsO):
            for w in model.states():
                asg2 = dict(asg)
                asg2[f.var] = w
                if ev(f.body, asg2):
                    return True
            return False
        raise TypeError(f"not a formula: {f!r}")

    return ev(f, dict(assignment))


def _outcome(evaluate, *args):
    try:
        value = evaluate(*args)
    except LogicEvalError as exc:
        return "raises", str(exc)
    assert type(value) is bool
    return "returns", value


def _rational_game(rng, n):
    """Payoffs p/q with mixed denominators, negative ones included."""
    sizes = [rng.randint(1, 3) for _ in range(n)]
    names = tuple(tuple(f"s{k}" for k in range(size)) for size in sizes)
    table = {
        profile: tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 7))) for _ in range(n))
        for profile in itertools.product(*map(range, sizes))
    }
    return Game(names, table)


def _model_with_repeated_profiles(rng, game):
    """A bare or belief model, not a standard one: its last state repeats the
    profile of its first."""
    if rng.random() < 0.5:
        k = rng.randint(2, 4)
        names, corr = tuple(f"w{w + 1}" for w in range(k)), None
        assignment = random_assignment(rng, game, k)
    else:
        belief = random_belief_model(rng, game, 4)
        names, corr, assignment = belief.state_names, belief.correspondences, belief.assignment
    assignment = tuple(own[:-1] + own[:1] if len(own) > 1 else own for own in assignment)
    return EpistemicModel(game, names, assignment, corr)


_LO_VARS = ("x", "y", "z")


def _random_lo(rng, game, depth=4):
    """Random conditions; quantifiers reuse the three variable names, so inner
    ones shadow outer ones."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.3:
            return Member(rng.choice(_LO_VARS))
        return Cmp(rng.randrange(game.n), *(rng.choice(_LO_VARS) for _ in range(3)))
    kind = rng.choice(("not", "and", "exists", "exists in", "forall", "forall in"))
    var = rng.choice(_LO_VARS)
    body = _random_lo(rng, game, depth - 1)
    if kind == "not":
        return NotO(body)
    if kind == "and":
        return AndO(body, _random_lo(rng, game, depth - 1))
    if kind == "exists":
        return ExistsO(var, body)
    if kind == "exists in":
        return ExistsO(var, AndO(Member(var), body))
    if kind == "forall":
        return o_forall(var, body)
    return o_forall(var, o_impl(Member(var), body))


def _some_events(rng, model):
    """The empty and the full event and random ones, most not product events."""
    states = list(model.states())
    return [frozenset(), model.all_event()] + [
        frozenset(rng.sample(states, rng.randint(1, len(states)))) for _ in range(2)
    ]


def test_compiled_conditions_equal_the_walker_on_random_formulas():
    rng = random.Random(41)
    for _ in range(12):
        game = _rational_game(rng, rng.randint(2, 3))
        model = _model_with_repeated_profiles(rng, game)
        events = _some_events(rng, model)
        for _ in range(16):
            f = _random_lo(rng, game)
            for states in itertools.product(model.states(), repeat=len(_LO_VARS)):
                full = dict(zip(_LO_VARS, states))
                # every assignment, and some with variables left unbound
                partial = {v: w for v, w in full.items() if rng.random() < 0.5}
                for assignment in (full, partial):
                    X = rng.choice(events)
                    assert _outcome(eval_lo, model, f, assignment, X) == _outcome(
                        _walker_eval_lo, model, f, assignment, X
                    ), (f, assignment, X)


def test_bounded_quantifiers_range_over_the_states_in_X():
    """A bounded quantifier binds only the model's states in X: a state of X
    the model lacks is never bound, an empty X binds nothing, so a body that
    would raise is not reached, and a free variable bound to a state outside
    X is read as any other."""
    rng = random.Random(47)
    for _ in range(10):
        game = _rational_game(rng, rng.randint(2, 3))
        model = _model_with_repeated_profiles(rng, game)
        states = list(model.states())
        lacking = frozenset({-1, model.num_states, model.num_states + 5})
        events = [frozenset(), lacking] + [
            frozenset(rng.sample(states, rng.randint(1, len(states)))) | lacking
            for _ in range(2)]
        for _ in range(12):
            f = _random_lo(rng, game)
            for assignment in itertools.product(states, repeat=len(_LO_VARS)):
                assignment = dict(zip(_LO_VARS, assignment))
                X = rng.choice(events)
                assert _outcome(eval_lo, model, f, assignment, X) == _outcome(
                    _walker_eval_lo, model, f, assignment, X), (f, assignment, X)

    model = standard_model(PD.full_restriction())  # states CC, CD, DC, DD
    some = parse_lo("exists z in X z in X")
    every = parse_lo("forall z in X u in X")
    assert eval_lo(model, some, {}, frozenset({7})) is False
    assert eval_lo(model, some, {}, frozenset({7, 2})) is True
    assert eval_lo(model, every, {}, frozenset()) is True
    assert eval_lo(model, every, {}, frozenset({9})) is True
    with pytest.raises(LogicEvalError, match="^unbound variable 'u'$"):
        eval_lo(model, every, {}, frozenset({9, 1}))
    # x plays D (state DD, outside X), which is at least as good as C at CC
    f = parse_lo("exists z in X x >=^1_z y")
    for x, y, X in ((3, 0, frozenset({0})), (0, 3, frozenset({0})), (0, 3, frozenset())):
        assert eval_lo(model, f, {"x": x, "y": y}, X) == _walker_eval_lo(
            model, f, {"x": x, "y": y}, X) == (x == 3 and bool(X))


def test_compiled_optimality_conditions_equal_the_walker():
    rng = random.Random(43)
    for _ in range(10):
        game = _rational_game(rng, rng.randint(2, 3))
        model = _model_with_repeated_profiles(rng, game)
        events = _some_events(rng, model)
        for name in LO_TEXTS:
            for i in range(game.n):
                f = parse_lo(lo_text(name, i))
                for w, X in itertools.product(model.states(), events):
                    # y is bound outside and shadowed inside every condition
                    assignment = {"x": w, "y": rng.choice(model.states())}
                    assert eval_lo(model, f, assignment, X) == _walker_eval_lo(
                        model, f, assignment, X
                    ), (name, i, w, X)


def test_unbound_variables_raise_only_where_evaluation_reaches_them():
    model = standard_model(PD.full_restriction())
    X = frozenset({0})
    f = AndO(Member("x"), Member("u"))
    assert eval_lo(model, f, {"x": 1}, X) is False
    with pytest.raises(LogicEvalError) as info:
        eval_lo(model, f, {"x": 0}, X)
    assert str(info.value) == "unbound variable 'u'"
    for bound, missing in (({"b": 0}, "a"), ({"a": 0}, "b"), ({"a": 0, "b": 0}, "c")):
        with pytest.raises(LogicEvalError) as info:
            eval_lo(model, Cmp(0, "a", "b", "c"), bound, X)
        assert str(info.value) == f"unbound variable {missing!r}"
    # a quantifier's binding ends with it
    with pytest.raises(LogicEvalError) as info:
        eval_lo(model, AndO(ExistsO("u", Member("u")), Member("u")), {}, model.all_event())
    assert str(info.value) == "unbound variable 'u'"


def test_compiled_conditions_match_builtins_on_pd():
    from epigame.games import all_restrictions
    from epigame.optimality import builtin

    for name in ("sd_l", "sd_g", "wd_l", "wd_g", "br_l", "br_g"):
        for i in range(2):
            compiled = compile_lo_to_property(lo_text(name, i), PD, i, name)
            reference = builtin(PD, name, i)
            assert compiled.provenance == "compiled"
            for G in all_restrictions(PD):
                if G.is_empty():
                    continue
                for s in PD.strategies(i):
                    assert compiled.holds(s, G) == reference.holds(s, G), (name, i)


def test_compile_rejects_bad_conditions():
    with pytest.raises(ValueError) as info:
        compile_lo_to_property(lo_text("sd_g", 0), PD, 1)
    assert "comparison for player 1" in str(info.value)
    with pytest.raises(ValueError) as info:
        compile_lo_to_property("x >=^1_z y", PD, 0)
    assert "exactly one free variable" in str(info.value)
    with pytest.raises(ValueError) as info:
        compile_lo_to_property("x in X", PD, 0)
    assert "sides of comparisons" in str(info.value)
    with pytest.raises(ValueError):
        compile_lo_to_property("forall y y >=^1_x y", PD, 0)


# ---------- derivations ----------


def test_bundled_derivation_is_valid():
    report = check_derivation(parse_derivation(BUNDLED_DERIVATION))
    assert report.valid
    assert [r.index for r in report.steps] == [1, 2, 3, 4]
    final = report.steps[-1].formula
    expected = impl(
        AndF(common_belief(Rat(None)), Rat(None)), Nu(Opt(None, Var()))
    )
    assert final == expected


def test_every_tampered_derivation_fails():
    assert len(TAMPERED_DERIVATIONS) == 10
    for text in TAMPERED_DERIVATIONS:
        report = check_derivation(parse_derivation(text))
        assert not report.valid, text
        bad = [r for r in report.steps if not r.ok]
        assert bad and all(r.reason for r in bad)


def test_axiom_step_shapes():
    report = check_derivation(parse_derivation("axiom ratDis psi=rat_2\n"))
    assert report.valid
    assert report.steps[0].formula == impl(
        Rat(None), impl(Box(None, Rat(1)), Opt(None, Rat(1)))
    )
    report = check_derivation(parse_derivation("axiom nuDis psi=O x\n"))
    assert report.valid
    assert report.steps[0].formula == impl(
        Nu(Opt(None, Var())), Opt(None, Nu(Opt(None, Var())))
    )


def test_axiom_step_rejections():
    report = check_derivation(parse_derivation("axiom ratDis psi=O x\n"))
    assert not report.valid
    assert "free fixpoint variable" in report.steps[0].reason
    report = check_derivation(parse_derivation("axiom nuDis psi=CB(rat)\n"))
    assert not report.valid
    assert "nested" in report.steps[0].reason


def test_prop_step_requires_consequence():
    text = "axiom ratDis psi=rat\nprop from=1 conclude=O rat\n"
    report = check_derivation(parse_derivation(text))
    assert not report.valid
    assert "propositional consequence" in report.steps[1].reason
    text = "axiom ratDis psi=rat\nprop from=0 conclude=rat -> rat\n"
    report = check_derivation(parse_derivation(text))
    assert "premise 0" in report.steps[1].reason


def test_later_steps_cannot_lean_on_failed_ones():
    text = (
        "axiom nuDis psi=!x\n"
        "prop from=1 conclude=(nu x. O x) -> O(nu x. O x)\n"
    )
    report = check_derivation(parse_derivation(text))
    assert not report.valid
    assert "premise 1 is not an earlier valid step" in report.steps[1].reason


def test_derivation_format_errors():
    with pytest.raises(DerivationFormatError) as info:
        parse_derivation("")
    assert "empty" in str(info.value)
    with pytest.raises(DerivationFormatError) as info:
        parse_derivation("# nothing\naxiom what psi=rat\n")
    assert info.value.line == 2
    with pytest.raises(DerivationFormatError) as info:
        parse_derivation("axiom ratDis psi=(rat\n")
    assert info.value.line == 1


def test_propositional_consequence():
    A, B = Rat(0), Rat(1)
    assert propositional_consequence([A, impl(A, B)], B)
    assert not propositional_consequence([B], A)
    # modal subformulas are opaque atoms: Box rat does not entail rat
    assert not propositional_consequence([Box(None, A)], A)
    big = Rat(0)
    for i in range(1, 17):
        big = AndF(big, Rat(i))
    with pytest.raises(BudgetExceededError):
        propositional_consequence([], big)
