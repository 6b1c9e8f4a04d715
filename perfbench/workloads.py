"""The four workloads: which commands run, on which instances, and how each
answer is checked.

A run is made of whole passes. Pass 0 is the warm-up's; passes 1, 2, ... are
measured, and each is built when the run reaches it, so a run of any length
never runs a command twice. Every pass holds the same instances up to
relabeling, so runs of different lengths measure the same mix. The random
payoffs, models and check seeds come from a fixed corpus; the benchmark seed
and the pass number relabel the games and models (the order of every
player's strategies, the order of model states) and shuffle the order of the
ops, and each pass has check seeds of its own, the same for every benchmark
seed. So the amount of work stays the same from seed to seed, and no
instance file is read in two passes: a process-wide memo that a later change
adds cannot hit from one pass to the next, as it could not for a user who
runs one command per process. Within a pass several commands read the same
file (the properties of one game, the formulas of one model), as a user
would run them on one instance. With fresh random payoffs per seed and per
pass, the run-to-run spread of ops_per_s was 12-25 % at 20 s per run, wider
than any useful bound.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import instances as inst
import oracle

CORPUS = "corpus"
LP_ALL = ("msd_l", "msd_g", "mwd_l", "mwd_g", "brc_l", "br_lc")
LP_CORE = ("msd_l", "msd_g", "brc_l", "br_lc")
BRC = ("brc_l", "br_lc")
PURE = oracle.PURE
# Properties whose outcomes agree by Pearce's lemma and the local/global
# identity; br_lc is br_l with correlated beliefs, the same predicate as brc_l.
PEARCE = ("msd_l", "msd_g", "brc_l", "br_lc")

# (family, size, properties). The sizes are the same for every seed; see
# perfbench/baseline.json for why each family and size range was chosen.
SOLVE_LP = (
    ("random", 4, LP_ALL),
    ("random", 5, LP_ALL),
    ("random", 6, LP_CORE),
    ("random", 8, BRC),
    ("random", 9, ("brc_l",)),
    ("traveler", 6, LP_ALL),
    ("traveler", 7, BRC),
    ("traveler", 9, ("brc_l",)),
    ("guess", 8, LP_CORE),
    ("guess", 10, BRC),
    ("guess", 12, ("brc_l",)),
    ("random3", 3, LP_ALL),
    ("random3", 4, ("msd_l", "brc_l", "br_lc")),
)
SOLVE_PURE = (
    ("random", 30, PURE),
    ("random", 45, PURE),
    ("random", 60, PURE),
    ("traveler", 20, PURE),
    ("traveler", 32, ("wd_l",)),
    ("traveler", 40, ("br_l",)),
    ("guess", 40, PURE),
    ("guess", 60, ("sd_l", "br_g")),
    ("guess", 80, ("br_l",)),
    ("random3", 8, PURE),
    ("random3", 12, PURE),
    ("guess3", 10, PURE),
    ("guess3", 12, ("sd_l", "wd_g")),
)
FORMULAS = (
    "rat & CB(rat)",
    "nu x. (rat & Box(x))",
    "Box_1(rat_2) & CB(rat)",
)
# (game, level, states, ops): "all" runs every eval and announce op on the
# model, "eval" only the first formula.
EPISTEMIC_MODELS = (
    ("traveler12", "knowledge", 128, "all"),
    ("traveler12", "belief", 128, "all"),
    ("traveler12", "knowledge", 256, "all"),
    ("traveler12", "belief", 256, "all"),
    ("traveler12", "knowledge", 512, "all"),
    ("traveler12", "belief", 1024, "eval"),
    ("guess10x3", "knowledge", 128, "all"),
    ("guess10x3", "belief", 128, "all"),
    ("guess10x3", "knowledge", 256, "all"),
    ("guess10x3", "belief", 256, "all"),
)
# Instances per check op (--random), chosen so that each op takes roughly
# 0.05-0.3 s at commit a066daf: the latencies then spread evenly instead of
# leaving a few ten-times-slower ops on top. derivation_valid runs a fixed set
# whatever the count says. Each pass runs every check with THEOREM_SEEDS
# different check seeds.
THEOREM_INSTANCES = {
    1: ("condition_a_globals", "compiled_agreement", "just1_pearce", "note_7_2_operator",
        "derivation_valid"),
    2: ("just_chain", "survival_formula"),
    3: ("just1_model",),
    4: ("announce_rationality",),
    5: ("epist1_witness", "formula3_valid", "positivity_monotone"),
    8: ("local_global_outcome",),
    10: ("epist1_belief", "epist1_knowledge", "epist2_identity", "operator_laws",
         "formula4_rat", "announce_optimality"),
    16: ("just_model", "gfp_characterizations", "common_belief_formula", "note_7_1_proper",
         "note_7_4_pinned", "nu_postfixpoints"),
}
THEOREM_SEEDS = 3


@dataclass
class Op:
    argv: list
    check: Callable[[str], Optional[str]]  # stdout -> complaint, or None
    key: str  # digest key: the argv with files replaced by content hashes
    slot: int = 0  # position in the pass before the seeded shuffle


@dataclass
class Files:
    """Writes instance files once per name and remembers their content hashes."""

    root: str
    hashes: dict = field(default_factory=dict)

    def write(self, name, text, depends=()):
        path = os.path.join(self.root, name)
        if name not in self.hashes:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            material = text + "".join(self.hashes[d] for d in depends)
            self.hashes[name] = hashlib.sha256(material.encode()).hexdigest()[:16]
        return path

    def key(self, argv):
        parts = []
        for arg in argv:
            name = os.path.relpath(arg, self.root) if arg.startswith(self.root) else None
            parts.append("@" + self.hashes[name] if name in self.hashes else arg)
        return hashlib.sha256("\0".join(parts).encode()).hexdigest()[:16]


def _lazy(fn):
    """fn() on first use; fn, and the instances it holds, are then dropped."""
    box = []

    def get():
        nonlocal fn
        if not box:
            box.append(fn())
            fn = None
        return box[0]

    return get


def _expect(render):
    """Compare stdout with the text render() gives, computed on first use."""
    text = _lazy(render)

    def check(out):
        return None if out == text() else "output differs from the oracle"

    return check


# ---------- solve ----------


def _table(seed, k, family, size):
    if family == "traveler":
        base = inst.traveler(size)
    elif family == "guess":
        base = inst.guess(size, 2)
    elif family == "guess3":
        base = inst.guess(size, 3)
    elif family == "random":
        base = inst.random_game(inst.rng_for(CORPUS, family, size), (size, size))
    elif family == "random3":
        base = inst.random_game(inst.rng_for(CORPUS, family, size), (size,) * 3)
    else:
        raise ValueError(family)
    return inst.relabel(base, inst.rng_for(seed, k, family, size))


def _solve_argv(path, prop):
    if prop == "br_lc":
        return ["solve", path, "--property", "br_l", "--belief-class", "correlated"]
    return ["solve", path, "--property", prop]


def _pure_text(table, prop):
    return oracle.solve_text(table, (prop,) * table.n)


def _sd_sets(table):
    return oracle.outcome(table, ("sd_l",) * table.n)[0]


def _lp_check(make, prop, group, sd_outcome):
    """Checks for one LP op: identities across the ops on the same game."""

    def check(out):
        table = make()
        props = ("brc_l" if prop == "br_lc" else prop,) * table.n
        sets = oracle.parse_outcome(table, out)
        if sets is None or "closure ordinal: " not in out:
            return "no outcome printed"
        if not oracle.no_pure_dominator(table, props, sets):
            return "a survivor is dominated by a pure strategy"
        if prop in PEARCE:
            if any(not a <= b for a, b in zip(sets, sd_outcome())):
                return "mixed outcome is not inside the sd outcome"
            if group.setdefault("pearce", sets) != sets:
                return "msd_l, msd_g, brc_l and correlated br_l disagree"
        return None

    return check


def solve_pass(spec, files, seed, k):
    ops = []
    for family, size, props in spec:
        # Checks rebuild the table when they need it, so that the passes hold
        # no payoff tables: they would weigh on peak_rss_mb.
        make = functools.partial(_table, seed, k, family, size)
        path = files.write(f"{family}{size}-p{k}.game", inst.game_text(make()))
        group = {}
        sd = _lazy(lambda m=make: _sd_sets(m()))
        for prop in props:
            shown = "br_l" if prop == "br_lc" else prop
            if family == "traveler":
                check = _expect(lambda m=make, p=shown: oracle.traveler_text(m(), (p,) * 2))
            elif prop in PURE:
                check = _expect(lambda m=make, p=prop: _pure_text(m(), p))
            else:
                check = _lp_check(make, prop, group, sd)
            argv = _solve_argv(path, prop)
            ops.append(Op(argv, check, files.key(argv)))
    return ops


# ---------- eval and announce ----------


def _api_events(path, prop):
    """The events of FORMULAS on a model file, computed through epigame's API.

    Only the events are kept, so that the expected answers hold no models.
    """
    from epigame import epistemic, optimality

    model = epistemic.load_model_file(path).model
    profile = optimality.profile_named(model.game, prop)
    rat = epistemic.rat_event(model, profile)
    cb = epistemic.common_box(model, rat)
    # nu x. (rat & Box(x)) is the largest event inside rat that everyone
    # believes, which is rat & CB(rat).
    return {
        "rat & CB(rat)": rat & cb,
        "nu x. (rat & Box(x))": rat & cb,
        "Box_1(rat_2) & CB(rat)": epistemic.box(
            model, epistemic.rationality_event(model, profile[1]), 0
        ) & cb,
    }


def _corpus_model(table, game, level, states):
    """The corpus stream after its model is drawn, and that model."""
    corpus = inst.rng_for(CORPUS, game, level, states)
    return corpus, inst.model(corpus, table, states, level)


def _pass_model(table, seed, k, game, level, states):
    """The corpus model of pass k: strategies and states relabeled."""
    plain = _corpus_model(table, game, level, states)[1]
    rng = inst.rng_for(seed, k, game, level, states)
    return inst.relabel_states(inst.relabel_strategies(plain, rng), rng)


def _nu_text(model, prop):
    return oracle.eval_text(model, oracle.nu_opt(model, (prop,) * model.table.n))


def _announce_text(model, prop, rationality):
    return oracle.announce_model_text(model, (prop,) * model.table.n, rationality)


def _guess_game(table, seed, k, prop):
    return inst.relabel(table, inst.rng_for(seed, k, "guess10x3", prop))


def epistemic_pass(files, seed, k):
    tables = {"traveler12": inst.traveler(12), "guess10x3": inst.guess(10, 3)}
    ops = []

    def add(argv, render):
        ops.append(Op(argv, _expect(render), files.key(argv)))

    for m_index, (game, level, states, slots) in enumerate(EPISTEMIC_MODELS):
        table = tables[game]
        corpus, plain = _corpus_model(table, game, level, states)
        # Checks rebuild the model when they need it, so that the passes hold
        # no models: they would weigh on peak_rss_mb.
        make = functools.partial(_pass_model, table, seed, k, game, level, states)
        model = make()
        stem = f"{game}-{level}{states}-p{k}"
        files.write(f"{stem}.game", inst.game_text(model.table))
        path = files.write(
            f"{stem}.emodel", inst.model_text(model, f"{stem}.game"), depends=(f"{stem}.game",)
        )
        prop = PURE[m_index % len(PURE)]
        api = _lazy(lambda p=path, q=prop: _api_events(p, q))
        for formula in FORMULAS[: 1 if slots == "eval" else None]:
            add(
                ["eval", path, "--formula", formula, "--property", prop],
                lambda m=make, a=api, f=formula: oracle.eval_text(m(), a()[f]),
            )
        if slots == "eval":
            continue
        mono = ("sd_g", "br_g")[m_index % 2]
        add(
            ["eval", path, "--formula", "nu x. O(x)", "--property", mono],
            lambda m=make, p=mono: _nu_text(m(), p),
        )
        for rationality in (False, True):
            prop = PURE[(m_index + 3 + rationality) % len(PURE)]
            add(
                ["announce", path, "--property", prop] + (["--rationality"] if rationality else []),
                lambda m=make, p=prop, r=rationality: _announce_text(m(), p, r),
            )
        # Each player's event: the states where they play one of a fixed half
        # of their strategies, named so that it survives the relabeling.
        keep = [set(corpus.sample(range(m), m // 2 + 1)) for m in table.sizes]
        chosen = [
            {plain.state_names[w] for w in range(states) if plain.assignment[i][w] in keep[i]}
            for i in range(table.n)
        ]
        events = tuple(
            frozenset(w for w, name in enumerate(model.state_names) if name in chosen[i])
            for i in range(table.n)
        )
        arg = "|".join(",".join(model.state_names[w] for w in sorted(e)) for e in events)
        add(
            ["announce", path, "--events", arg],
            lambda m=make, ev=events: oracle.announce_events_text(m(), ev),
        )
    for prop, rationality in (("wd_g", False), ("sd_g", True)):
        make = functools.partial(_guess_game, tables["guess10x3"], seed, k, prop)
        path = files.write(f"guess10x3-{prop}-p{k}.game", inst.game_text(make()))
        add(
            ["announce", path, "--property", prop] + (["--rationality"] if rationality else []),
            lambda m=make, p=prop, r=rationality: oracle.announce_game_text(m(), (p,) * 3, r),
        )
    return ops


# ---------- check ----------


def check_names():
    from epigame import checks

    return tuple(checks.CHECKS)


def _passed(name):
    # Some checks run a fixed number of instances whatever --random says.
    pattern = re.compile(
        rf"PASS {re.escape(name)} \(\d+ instances\)\n1 checks: 1 passed, 0 failed\n"
    )

    def check(out):
        return None if pattern.fullmatch(out) else "the check did not pass"

    return check


def theorems_pass(files, seed, k):
    # Global options go before the subcommand; after it argparse exits with 2.
    count = {name: n for n, names in THEOREM_INSTANCES.items() for name in names}
    ops = []
    for name in check_names():
        for j in range(THEOREM_SEEDS):
            check_seed = inst.rng_for(CORPUS, "theorems", name, j, k).randrange(10**6)
            argv = [
                "--seed", str(check_seed), "check", name,
                "--random", str(count.get(name, 4)), "--jobs", "1",
            ]
            ops.append(Op(argv, _passed(name), files.key(argv)))
    return ops


WORKLOADS = ("solve-lp", "solve-pure", "epistemic", "theorems")


def build(workload, seed, root, k):
    """Pass k of a workload, in its seeded order, with its files written under root."""
    os.makedirs(root, exist_ok=True)
    files = Files(root)
    if workload == "solve-lp":
        ops = solve_pass(SOLVE_LP, files, seed, k)
    elif workload == "solve-pure":
        ops = solve_pass(SOLVE_PURE, files, seed, k)
    elif workload == "epistemic":
        ops = epistemic_pass(files, seed, k)
    elif workload == "theorems":
        ops = theorems_pass(files, seed, k)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for slot, op in enumerate(ops):
        op.slot = slot
    inst.rng_for(seed, k, "order").shuffle(ops)
    return ops
