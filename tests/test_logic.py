"""Both formula languages, their evaluators, and the derivation checker."""

import random
from pathlib import Path

import pytest

from epigame.checks import (
    BUNDLED_DERIVATION,
    TAMPERED_DERIVATIONS,
    CheckConfig,
    random_l_formula,
)
from epigame.epistemic import (
    EpistemicModel,
    common_box,
    event_of_restriction,
    rat_event,
    rationality_event,
    standard_model,
)
from epigame.games import BudgetExceededError, load_game_file
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
    lo_free_vars,
    lo_text,
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
from epigame.optimality import profile_named

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
        assert parse_lnu(pretty(f)) == f


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
