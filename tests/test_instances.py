"""Instance file round trips and schema errors."""

import functools
import json
import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch.errors import ValidationError
from districtmatch.fixtures import fixture_path
from districtmatch.instances import (
    Instance,
    format_fraction,
    instance_from_dict,
    load_instance,
    parse_fraction,
)
from districtmatch.model import Distribution, Problem
from districtmatch.policy import GoalForm, PolicyGoal
from districtmatch.rules import RuleKind, RuleSpec, make_rule

import instances_reference
from helpers import random_problem
from test_instance_fuzz import EDITS, mutate


# -- serialization, the loader's inverse ------------------------------------------


def instance_to_dict(inst: Instance) -> dict:
    problem = inst.problem
    doc = {
        "meta": dict(inst.meta),
        "types": list(problem.type_ids),
        "districts": list(problem.district_ids),
        "schools": [
            {
                "id": problem.school_ids[c],
                "district": problem.district_ids[problem.school_district[c]],
                "capacity": problem.capacities[c],
            }
            for c in range(problem.num_schools)
        ],
        "students": [
            {
                "id": problem.student_ids[s],
                "district": problem.district_ids[problem.student_district[s]],
                "type": problem.type_ids[problem.student_type[s]],
                "preferences": [problem.school_ids[c] for c in problem.preferences[s]],
            }
            for s in range(problem.num_students)
        ],
        "initial_matching": {
            problem.student_ids[s]: problem.school_ids[problem.initial_school[s]]
            for s in range(problem.num_students)
        },
    }
    if inst.rules:
        doc["rules"] = [
            _rule_to_dict(inst.rules[d], problem) for d in sorted(inst.rules)
        ]
    if inst.policy is not None:
        doc["policy"] = _policy_to_dict(inst.policy, problem)
    if inst.master is not None:
        doc["master_list"] = [problem.student_ids[s] for s in inst.master]
    if inst.alpha is not None:
        doc["alpha"] = format_fraction(inst.alpha)
    return doc


def _pair_section(pairs, row_ids, problem) -> dict:
    """((row, type), count) pairs as a row id -> type id -> count section."""
    out = {}
    for (r, t), v in pairs:
        out.setdefault(row_ids[r], {})[problem.type_ids[t]] = v
    return out


def _distribution_section(xi: Distribution, problem: Problem) -> dict:
    """The nonzero counts of ``xi`` as a school id -> type id -> count section."""
    pairs = [((c, t), v) for c, row in enumerate(xi.counts) for t, v in enumerate(row) if v]
    return _pair_section(pairs, problem.school_ids, problem)


def _contract_pairs(X, problem: Problem) -> list:
    return [[problem.student_ids[x.student], problem.school_ids[x.school]] for x in sorted(X)]


def _rule_to_dict(rule: RuleSpec, problem: Problem) -> dict:
    doc = {
        "district": problem.district_ids[rule.district],
        "kind": rule.kind.value,
    }
    if rule.school_order:
        doc["school_order"] = [problem.school_ids[c] for c in rule.school_order]
    if rule.priorities:
        doc["priorities"] = {
            problem.school_ids[c]: [problem.student_ids[s] for s in order]
            for c, order in rule.priorities
        }
    if rule.reserves:
        doc["reserves"] = _pair_section(rule.reserves, problem.school_ids, problem)
    if rule.ceilings:
        doc["ceilings"] = _pair_section(rule.ceilings, problem.school_ids, problem)
    if rule.type_order:
        doc["type_order"] = [problem.type_ids[t] for t in rule.type_order]
    if rule.district_cap is not None:
        doc["district_cap"] = rule.district_cap
    if rule.table:
        doc["table"] = [
            {"set": _contract_pairs(key, problem), "chosen": _contract_pairs(value, problem)}
            for key, value in rule.table
        ]
    if rule.district_ceilings:
        doc["district_ceilings"] = {
            problem.type_ids[t]: q for t, q in rule.district_ceilings
        }
    return doc


def _policy_to_dict(goal: PolicyGoal, problem: Problem) -> dict:
    doc = {"form": goal.form.value}
    if goal.intersect_xi0:
        doc["intersect_xi0"] = True
    if goal.form in (GoalForm.SCHOOL_DIVERSITY, GoalForm.COMBINATION):
        if goal.floors:
            doc["floors"] = _pair_section(goal.floors, problem.school_ids, problem)
        if goal.ceilings:
            doc["ceilings"] = _pair_section(goal.ceilings, problem.school_ids, problem)
    elif goal.form is GoalForm.DISTRICT_CEILINGS:
        doc["ceilings"] = _pair_section(goal.district_ceilings, problem.district_ids, problem)
    elif goal.form is GoalForm.EXPLICIT_SET:
        doc["distributions"] = [
            _distribution_section(xi, problem)
            for xi in sorted(goal.explicit, key=lambda x: x.flat())
        ]
    elif goal.form is GoalForm.F_LAMBDA:
        doc["f"] = {
            "kind": "manhattan_ideal",
            "ideal": _distribution_section(goal.fn.ideal, problem),
        }
        doc["lambda"] = format_fraction(goal.threshold)
    return doc


def dump_instance(inst: Instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")



@pytest.mark.parametrize("name", dm.FIXTURE_NAMES)
def test_round_trip_identity(name, tmp_path):
    inst = dm.load_fixture(name)
    path = tmp_path / f"{name}.json"
    dump_instance(inst, path)
    again = load_instance(path)
    assert instance_to_dict(again) == instance_to_dict(inst)
    # and the serialized form is stable under a second pass
    path2 = tmp_path / f"{name}-2.json"
    dump_instance(again, path2)
    assert path.read_text() == path2.read_text()


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"types": ["t1"],')
    with pytest.raises(ValidationError) as err:
        load_instance(path)
    assert "line" in str(err.value)


def test_malformed_fixture_is_a_validation_error(tmp_path, monkeypatch):
    # a shipped fixture loads as any instance file does
    path = tmp_path / "broken.json"
    path.write_text('{"types": ["t1"],')
    monkeypatch.setattr("districtmatch.fixtures.fixture_path", lambda name: path)
    with pytest.raises(ValidationError) as err:
        dm.load_fixture("spda_basic")
    assert err.value.codes() == ["MalformedJson"]


def test_missing_section_rejected():
    with pytest.raises(ValidationError):
        instance_from_dict({"types": ["t1"]})


def test_fraction_strings_only():
    assert parse_fraction("3/4").numerator == 3
    assert parse_fraction("-3/4") == Fraction(-3, 4)
    assert parse_fraction("07") == parse_fraction(7) == 7
    # Fraction reads every spelling below; the schema's p/q strings do not
    for text in ("0.75", "75e-2", "1e3", "1_000", " 3/4 ", "3/4\n", "+3/4", "\uff13/\uff14"):
        with pytest.raises(ValidationError) as err:
            parse_fraction(text)
        assert err.value.issues == [("DanglingReference", f"rationals are p/q strings: {text!r}")]


def test_rules_optional(impossibility):
    assert impossibility.rules == {}
    assert impossibility.policy is not None


def test_fixture_catalog_loads():
    for name in dm.FIXTURE_NAMES:
        inst = dm.load_fixture(name)
        assert inst.problem.num_students >= 1


# -- round trips of generated instances ---------------------------------------------


def _generated_rule(rng, problem, district, kind):
    """A well-formed rule of ``kind`` with every optional field set."""
    types = list(range(problem.num_types))
    rng.shuffle(types)
    district_ceilings = {t: rng.randint(0, 3) for t in types}
    if kind is RuleKind.EXPLICIT_TABLE:
        universe = problem.district_contracts(district)
        table = []
        for _ in range(rng.randint(1, 4)):
            key = frozenset(x for x in universe if rng.random() < 0.4)
            table.append((key, frozenset(x for x in key if rng.random() < 0.5)))
        return make_rule(
            district=district, kind=kind, table=table, district_ceilings=district_ceilings
        )
    schools = list(problem.district_schools[district])
    rng.shuffle(schools)
    reserves, ceilings = {}, {}
    if kind is RuleKind.RESERVES_AND_CEILINGS:
        for c in schools:
            room = problem.capacities[c]
            for t in range(problem.num_types):
                reserves[(c, t)] = v = rng.randint(0, room)
                room -= v
                ceilings[(c, t)] = v + rng.randint(0, 2)
    n = problem.num_students
    return make_rule(
        district=district,
        kind=kind,
        school_order=schools,
        priorities={c: rng.sample(range(n), n) for c in schools},
        reserves=reserves,
        ceilings=ceilings,
        type_order=types,
        district_cap=rng.randint(0, problem.k_district[district] + 1),
        district_ceilings=district_ceilings,
        problem=problem,
    )


def _counts(rng, problem):
    return {
        (c, t): rng.randint(0, 2)
        for c in range(problem.num_schools)
        for t in range(problem.num_types)
        if rng.random() < 0.6
    }


def _distribution(rng, problem):
    return Distribution(
        tuple(
            tuple(rng.randint(0, 2) for _ in range(problem.num_types))
            for _ in range(problem.num_schools)
        )
    )


def _generated_goal(rng, problem, form):
    if form is GoalForm.EXPLICIT_SET:
        goal = dm.explicit_goal(_distribution(rng, problem) for _ in range(rng.randint(0, 3)))
    elif form is GoalForm.BALANCED_EXCHANGE:
        goal = dm.balanced_exchange_goal()
    elif form is GoalForm.F_LAMBDA:
        fn = dm.PolicyFunction(kind="manhattan_ideal", ideal=_distribution(rng, problem))
        goal = dm.f_lambda_goal(fn, Fraction(-rng.randint(0, 9), rng.randint(1, 4)))
    elif form is GoalForm.DISTRICT_CEILINGS:
        goal = dm.district_ceilings_goal(
            {
                (d, t): rng.randint(0, 3)
                for d in range(problem.num_districts)
                for t in range(problem.num_types)
            }
        )
    else:
        floors = _counts(rng, problem)
        ceilings = {k: v + rng.randint(0, 2) for k, v in _counts(rng, problem).items()}
        ceilings.update({k: max(v, ceilings.get(k, v)) for k, v in floors.items()})
        diverse = form is GoalForm.SCHOOL_DIVERSITY
        goal = (dm.school_diversity_goal if diverse else dm.combination_goal)(floors, ceilings)
    return replace(goal, intersect_xi0=rng.random() < 0.5)


def _generated_instance(seed):
    """An instance with every goal form and every rule kind over the seeds,
    with every optional field written."""
    rng = random.Random(seed)
    problem = random_problem(rng)
    kinds = list(RuleKind)
    rules = {
        d: _generated_rule(rng, problem, d, kinds[(seed + 2 * d) % len(kinds)])
        for d in range(problem.num_districts)
    }
    master = tuple(rng.sample(range(problem.num_students), problem.num_students))
    inst = Instance(
        problem=problem,
        rules=rules,
        policy=_generated_goal(rng, problem, list(GoalForm)[seed % len(GoalForm)]),
        master=master,
        alpha=Fraction(rng.randint(1, 5), rng.randint(1, 5)),
        meta={"name": f"generated-{seed}", "seed": seed},
    )
    return inst


GENERATED_SEEDS = range(20)


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_round_trip_of_generated_instances(seed):
    inst = _generated_instance(seed)
    doc = instance_to_dict(inst)
    again = instance_from_dict(json.loads(json.dumps(doc)))
    assert again == inst
    assert instance_to_dict(again) == doc
    _assert_loaders_agree(json.loads(json.dumps(doc)))


# -- the loader against the reference loader ----------------------------------------


# a school of an unknown district is a defined school to the loader, but no
# school at all to the reference, which then reports each student who ranks
# it as ranking an unknown school; the students' preference issues differ
UNKNOWN_DISTRICT = re.compile(r"school .* references unknown district ")
PREFERENCE_ISSUE = re.compile(
    r"student .* (ranks unknown school |must rank every school exactly once$)"
)


def _load(load, doc):
    try:
        return load(doc)
    except ValidationError as exc:
        return exc.issues


def _assert_loaders_agree(doc):
    got, want = _load(instance_from_dict, doc), _load(instances_reference.instance_from_dict, doc)
    both_fail = isinstance(got, list) and isinstance(want, list)
    if both_fail and any(UNKNOWN_DISTRICT.match(m) for _, m in want):
        got, want = ([i for i in out if not PREFERENCE_ISSUE.match(i[1])] for out in (got, want))
    assert got == want


@functools.lru_cache(maxsize=None)
def _source_text(source):
    """A fixture's file, or the document of a generated instance, as JSON."""
    if isinstance(source, str):
        return fixture_path(source).read_text()
    return json.dumps(instance_to_dict(_generated_instance(source)))


@settings(max_examples=300, deadline=None)
@given(
    source=st.sampled_from((*dm.FIXTURE_NAMES, *GENERATED_SEEDS)),
    edits=st.lists(EDITS, max_size=3),
)
def test_loader_matches_reference_on_mutated_documents(source, edits):
    doc = json.loads(_source_text(source))
    for edit in edits:
        mutate(doc, *edit)
    _assert_loaders_agree(doc)


def test_loading_compiles_no_rule(monkeypatch):
    # the compiled form of a rule is built at its first choose, not at load
    from districtmatch import rules as rules_module

    def refuse(self, rule, problem):
        raise AssertionError("instance_from_dict built a CompiledRule")

    docs = [json.loads(dm.fixtures.fixture_path(name).read_text()) for name in dm.FIXTURE_NAMES]
    rng = random.Random(7)
    for kind in RuleKind:
        problem = random_problem(rng)
        rules = {d: _generated_rule(rng, problem, d, kind) for d in range(problem.num_districts)}
        docs.append(instance_to_dict(Instance(problem, rules, None, None, None, {})))
    monkeypatch.setattr(rules_module.CompiledRule, "__init__", refuse)
    for doc in docs:
        instance_from_dict(doc)


def _first(section):
    return next(iter(section.values()))


@pytest.mark.parametrize(
    "name,edit,message",
    [
        (
            "nonexistence",
            lambda doc: doc["policy"]["ceilings"]["d1"].update(t1=-1),
            "policy: ceiling at district 'd1', type 't1' is negative",
        ),
        (
            "ttc_diversity",
            lambda doc: doc["policy"]["ceilings"]["c1"].update(t2=-1),
            "policy: ceiling at school 'c1', type 't2' is negative",
        ),
        (
            "spda_rationed",
            lambda doc: doc["rules"][0].update(district_cap=-1),
            "rule for district d1: district_cap is negative",
        ),
        (
            "reserves_diversity",
            lambda doc: _first(doc["rules"][0]["reserves"]).update(t1=-2),
            "rule for district d1: reserve for type t1 at school c1 is negative",
        ),
    ],
    ids=["district-ceiling", "box-ceiling", "district-cap", "reserve"],
)
def test_negative_count_is_one_issue(name, edit, message):
    doc = json.loads(fixture_path(name).read_text())
    edit(doc)
    with pytest.raises(ValidationError) as exc:
        instance_from_dict(doc)
    assert [m for _, m in exc.value.issues] == [message]


def test_misspelled_key_is_one_issue():
    # a misspelled optional key would otherwise load as the key left out
    doc = json.loads(fixture_path("spda_rationed").read_text())
    doc["rules"][0]["district_capp"] = doc["rules"][0].pop("district_cap")
    with pytest.raises(ValidationError) as exc:
        instance_from_dict(doc)
    assert exc.value.issues == [("UnknownKey", "rule 1 has unknown key 'district_capp'")]
