"""Command-line behavior: outputs, exit codes, determinism."""

import json

import pytest

from districtmatch import cli, load_instance, oracle
from districtmatch.cli import _build_parser, main
from districtmatch.fixtures import FIXTURE_NAMES, fixture_path
from districtmatch.rules import RuleProperty

from helpers import count_calls
from rules_reference import check_property_reference


def fpath(name):
    return str(fixture_path(name))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_spda_golden(capsys):
    code, out, _ = run_cli(capsys, "run", fpath("spda_basic"), "--mechanism", "spda")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "student,school,district"
    assert lines[1:5] == [
        "s1,c2,d1",
        "s2,c3,d2",
        "s3,c1,d1",
        "s4,c2,d1",
    ]
    assert "individual_rationality,fails" in lines
    assert "balanced_exchange,fails" in lines
    assert "steps,2" in lines


def test_run_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "run", fpath("reserves_diversity"), "--mechanism", "spda")
    _, out2, _ = run_cli(capsys, "run", fpath("reserves_diversity"), "--mechanism", "spda")
    assert out1 == out2


def test_reports_byte_identical_across_processes(tmp_path):
    # separate interpreters with different hash seeds must agree bytewise
    import subprocess
    import sys
    from pathlib import Path

    import districtmatch

    # the children import the same copy of the package as this process, with
    # nothing inherited but PATH; cwd=tmp_path keeps -m from resolving a
    # districtmatch that sits in the caller's working directory
    package_dir = Path(districtmatch.__file__).resolve().parent
    src_root = str(package_dir.parent)
    # every property an instance file can check; is_completion_of needs a base rule
    properties = [v.value for v in RuleProperty if v is not RuleProperty.IS_COMPLETION_OF]
    check_rule = ("check-rule", fpath("reserves_diversity"), "--district", "d1", "--properties")
    # a malformed instance whose issues come from every section that resolves ids
    doc = json.loads(fixture_path("spda_basic").read_text())
    doc["schools"][0]["district"] = "zz"
    doc["students"][0]["preferences"][2] = "c9"
    doc["rules"][0]["priorities"]["c9"] = ["s1", "s9"]
    doc["policy"] = {
        "form": "school_diversity",
        "floors": {"c3": {"t1": 2}, "c2": {"t1": -1}},
        "ceilings": {"c3": {"t1": 1}, "c1": {"t9": 1}},
    }
    doc["master_list"] = ["s4", "x", "s1"]
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps(doc))

    outputs = []
    for seed in ("0", "424242"):
        env = {"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin", "PYTHONPATH": src_root}
        probe = subprocess.run(
            [sys.executable, "-c", "import districtmatch; print(districtmatch.__file__)"],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert probe.returncode == 0, probe.stderr
        child_dir = Path(probe.stdout.strip()).resolve().parent
        assert child_dir == package_dir, f"child imported {child_dir}, not {package_dir}"
        trace = tmp_path / f"trace-{seed}.json"
        # (exit code, argv); check-rule exits 4 as some properties fail
        commands = (
            (0, ("run", fpath("ttc_diversity"), "--mechanism", "ttc", "--trace", str(trace))),
            (0, ("bounds", fpath("reserves_diversity"))),
            (0, ("policy-check", fpath("reserves_diversity"))),
            (0, ("audit", fpath("spda_basic"), "--mechanism", "spda")),
            (4, (*check_rule, *properties)),
            (0, ("nonexistence", fpath("nonexistence"), "--district", "d1")),
            (2, ("run", str(malformed), "--mechanism", "spda")),
        )
        stdouts = []
        for code, argv in commands:
            proc = subprocess.run(
                [sys.executable, "-m", "districtmatch.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                cwd=tmp_path,
            )
            assert proc.returncode == code, proc.stderr
            stdouts.append((proc.stdout.replace(str(trace), "TRACE"), proc.stderr))
        outputs.append((stdouts, trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_run_spda_trace_export(capsys, tmp_path):
    trace_path = tmp_path / "steps.json"
    code, out, _ = run_cli(
        capsys,
        "run",
        fpath("spda_basic"),
        "--mechanism",
        "spda",
        "--trace",
        str(trace_path),
    )
    assert code == 0
    assert f"trace,{trace_path}" in out
    doc = json.loads(trace_path.read_text())
    assert doc["mechanism"] == "spda"
    assert len(doc["steps"]) == 2
    assert doc["steps"][0]["tentative"] == [["s2", "c3"], ["s3", "c1"], ["s4", "c2"]]
    assert doc["steps"][1]["rejected"] == []


def test_run_ttc_golden_with_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys,
        "run",
        fpath("ttc_diversity"),
        "--mechanism",
        "ttc",
        "--trace",
        str(trace_path),
    )
    assert code == 0
    assert "s1,c3,d2" in out
    assert "policy_goal,satisfied" in out
    doc = json.loads(trace_path.read_text())
    assert doc["mechanism"] == "ttc"
    assert len(doc["steps"]) == 5
    assert doc["steps"][0]["cycles"]


def _ttc_diversity_with_policy(tmp_path, policy):
    """ttc_diversity with its policy section replaced by ``policy(problem,
    inst, as_doc)``, where ``as_doc`` writes a distribution by ids."""
    import districtmatch as dm

    inst = dm.load_fixture("ttc_diversity")
    problem = inst.problem

    def as_doc(xi):
        return {
            problem.school_ids[c]: {problem.type_ids[t]: v for t, v in enumerate(row) if v}
            for c, row in enumerate(xi.counts)
        }

    doc = json.loads(fixture_path("ttc_diversity").read_text())
    doc["policy"] = policy(problem, inst, as_doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _explicit_members(problem, inst, as_doc):
    from districtmatch.policy import policy_members

    members = policy_members(inst.policy, problem)
    return {"form": "explicit_set", "distributions": [as_doc(xi) for xi in members]}


def _manhattan(threshold):
    def policy(problem, inst, as_doc):
        import districtmatch as dm

        ideal = as_doc(dm.distribution_of(problem.initial_matching(), problem))
        f = {"kind": "manhattan_ideal", "ideal": ideal}
        return {"form": "f_lambda", "f": f, "lambda": threshold}

    return policy


@pytest.mark.parametrize(
    "policy",
    [_explicit_members, _manhattan("-4"), _manhattan("-2")],
    ids=["explicit_set", "f_lambda", "f_lambda_stuck"],
)
def test_ttc_under_non_linear_goals_matches_the_per_pair_loop(
    capsys, tmp_path, monkeypatch, policy
):
    # explicit and score goals hand out free slots by one permits per slot;
    # the run's trace bytes and outcome, and the audit's report, are those
    # of the per-pair step loop
    import districtmatch as dm
    from trace_reference import _ttc_trace_doc, trace_text
    from ttc_reference import run_ttc_per_pair

    path = _ttc_diversity_with_policy(tmp_path, policy)
    inst = dm.load_instance(path)
    problem = inst.problem
    try:
        want = run_ttc_per_pair(problem, inst.policy, inst.master)
        stuck = False
    except dm.Stuck as exc:
        want, stuck = exc.trace, True
    trace_path = tmp_path / "trace.json"
    code, out, err = run_cli(capsys, "run", path, "--mechanism", "ttc", "--trace", str(trace_path))
    assert trace_path.read_text() == trace_text(_ttc_trace_doc(problem, want))
    if stuck:
        assert (code, out) == (3, "")
        assert "no trading cycle exists" in err
    else:
        assert code == 0
        rows = out.splitlines()[1 : problem.num_students + 1]
        assert rows == [
            f"{problem.student_ids[x.student]},{problem.school_ids[x.school]},"
            f"{problem.district_ids[x.district]}"
            for x in sorted(want.outcome)
        ]

    audit = run_cli(capsys, "audit", path, "--mechanism", "ttc")
    monkeypatch.setattr(oracle, "run_ttc", run_ttc_per_pair)
    assert audit == run_cli(capsys, "audit", path, "--mechanism", "ttc")
    assert audit[0] in (0, 3, 6)


def test_audit_names_the_misreport_whose_run_is_stuck(capsys, tmp_path):
    # the honest run finishes, but a misreport's run finds no trading cycle
    path = _ttc_diversity_with_policy(tmp_path, _manhattan("-4"))
    assert run_cli(capsys, "run", path, "--mechanism", "ttc")[0] == 0
    assert run_cli(capsys, "audit", path, "--mechanism", "ttc") == (
        3,
        "",
        "mechanism error: the honest run succeeded, but the run on student s1's "
        "report c3>c1>c2>c4 did not: students remain but no trading cycle exists; "
        "the goal set is likely not M-convex\n",
    )


def test_audit_names_the_misreport_whose_run_raises(capsys, tmp_path):
    # each table lists only {} and its own student's home school; s1's
    # report c2>c1 sends d2 a set outside its table, which an audit once
    # reported without naming the report
    doc = {
        "types": ["t1"],
        "districts": ["d1", "d2"],
        "schools": [
            {"id": "c1", "district": "d1", "capacity": 1},
            {"id": "c2", "district": "d2", "capacity": 1},
        ],
        "students": [
            {"id": "s1", "district": "d1", "type": "t1", "preferences": ["c1", "c2"]},
            {"id": "s2", "district": "d2", "type": "t1", "preferences": ["c2", "c1"]},
        ],
        "initial_matching": {"s1": "c1", "s2": "c2"},
        "rules": [
            {
                "district": d,
                "kind": "explicit_table",
                "table": [
                    {"set": [], "chosen": []},
                    {"set": [[s, c]], "chosen": [[s, c]]},
                ],
            }
            for d, s, c in (("d1", "s1", "c1"), ("d2", "s2", "c2"))
        ],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "run", str(path), "--mechanism", "spda")[0] == 0
    assert run_cli(capsys, "audit", str(path), "--mechanism", "spda") == (
        3,
        "",
        "error: the honest run succeeded, but the run on student s1's report "
        "c2>c1 did not: set outside the explicit table's declared universe\n",
    )


def test_run_spda_intra(capsys):
    code, out, _ = run_cli(capsys, "run", fpath("spda_basic"), "--mechanism", "spda-intra")
    assert code == 0
    assert "s3,c3,d2" in out


@pytest.mark.parametrize("fixture", ["spda_basic", "reserves_diversity"])
def test_run_spda_intra_refuses_a_trace(capsys, tmp_path, fixture):
    trace_path = tmp_path / "trace.json"
    code, out, err = run_cli(
        capsys, "run", fpath(fixture), "--mechanism", "spda-intra", "--trace", str(trace_path)
    )
    assert code == 2 and out == "" and not trace_path.exists()
    assert err == "error: --mechanism spda-intra keeps no step trace; drop --trace\n"


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


@pytest.mark.parametrize(
    "fixture, mechanism",
    [("spda_basic", "spda"), ("ttc_diversity", "ttc"), ("ttc_stuck", "ttc")],
)
def test_run_renders_the_trace_only_when_asked(
    capsys, monkeypatch, tmp_path, fixture, mechanism
):
    rendered = count_calls(monkeypatch, cli, "_write_spda_trace", "_write_ttc_trace")
    code, out, err = run_cli(capsys, "run", fpath(fixture), "--mechanism", mechanism)
    assert rendered == []
    trace_path = tmp_path / "trace.json"
    got = run_cli(
        capsys, "run", fpath(fixture), "--mechanism", mechanism, "--trace", str(trace_path)
    )
    assert len(rendered) == 1 and trace_path.exists()
    # the trace adds its own line to a finished run's report, and nothing else
    assert got == (code, out + (f"trace,{trace_path}\n" if code == 0 else ""), err)


def test_malformed_instance_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "run", str(bad), "--mechanism", "spda")
    assert code == 2
    assert "validation error" in err


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"\xff\xfe{}", "instance is not UTF-8: invalid start byte at byte 0"),
        (b"[" * 10_000 + b"]" * 10_000, "malformed JSON: nested too deeply"),
        (
            b"{not json",
            "malformed JSON at line 1: Expecting property name enclosed in double quotes",
        ),
    ],
    ids=["not_utf8", "nested_too_deeply", "not_json"],
)
def test_undecodable_instance_exits_2(capsys, tmp_path, raw, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code, out, err = run_cli(capsys, "run", str(bad), "--mechanism", "spda")
    assert (code, out) == (2, "")
    assert "validation error" in err and message in err
    assert err == f"validation error: MalformedJson: {message}\n"


def test_instance_that_is_not_an_object_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    code, out, err = run_cli(capsys, "run", str(bad), "--mechanism", "spda")
    assert (code, out, err) == (
        2, "", "validation error: DanglingReference: an instance is a JSON object\n"
    )


def test_missing_rules_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", fpath("impossibility"), "--mechanism", "spda")
    assert code == 2


@pytest.mark.parametrize(
    "fixture,mechanism,missing",
    [
        ("ttc_diversity", "spda", "rule for every district"),
        ("impossibility", "spda", "rule for every district"),
        ("spda_basic", "ttc", "policy section"),
        ("spda_basic", "efficient-selector", "policy section"),
    ],
)
def test_audit_without_its_section_exits_2(capsys, fixture, mechanism, missing):
    code, out, err = run_cli(capsys, "audit", fpath(fixture), "--mechanism", mechanism)
    assert (code, out) == (2, "")
    assert "validation error" in err and f"{mechanism} needs a {missing}" in err


def _without_rule(tmp_path, name, district):
    """Fixture ``name`` with ``district``'s rule taken out."""
    doc = json.loads(fixture_path(name).read_text())
    doc["rules"] = [rule for rule in doc["rules"] if rule["district"] != district]
    path = tmp_path / f"{name}-without-{district}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_accommodates_unmatched_needs_every_rule(capsys, tmp_path):
    # spda_basic with d1's rule alone: refused before anything is printed
    path = _without_rule(tmp_path, "spda_basic", "d2")
    code, out, err = run_cli(
        capsys, "check-rule", path, "--district", "d1", "--properties", "accommodates_unmatched"
    )
    assert (code, out, err) == (
        2,
        "",
        "validation error: DanglingReference: "
        "accommodates_unmatched needs a rule for every district\n",
    )


RULE_FIXTURES = [
    name for name in FIXTURE_NAMES if json.loads(fixture_path(name).read_text()).get("rules")
]


@pytest.mark.parametrize(
    "name,district",
    [
        (name, rule["district"])
        for name in RULE_FIXTURES
        for rule in json.loads(fixture_path(name).read_text())["rules"]
    ],
)
def test_a_missing_rule_never_raises(capsys, tmp_path, name, district):
    # every subcommand that reads rules, on the fixture without one of them
    path = _without_rule(tmp_path, name, district)
    every = [p.value for p in RuleProperty if p is not RuleProperty.IS_COMPLETION_OF]
    one_rule = [p for p in every if p != RuleProperty.ACCOMMODATES_UNMATCHED.value]
    commands = [("run", path, "--mechanism", m) for m in ("spda", "spda-intra")]
    commands += [("audit", path, "--mechanism", m) for m in ("spda", "ttc", "efficient-selector")]
    for rule in json.loads(fixture_path(name).read_text())["rules"]:
        commands += [
            ("check-rule", path, "--district", rule["district"], "--properties", *properties)
            for properties in (every, one_rule)
        ]
    for argv in commands:
        code, _, err = run_cli(capsys, *argv)
        assert 0 <= code <= 6 and "Traceback" not in err, argv


def test_run_master_unknown_student_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "run", fpath("ttc_diversity"), "--mechanism", "ttc", "--master", "s1", "nobody"
    )
    assert (code, out) == (2, "")
    assert "validation error" in err and "unknown student 'nobody'" in err


def test_run_master_overrides_the_file_order(capsys):
    # in file order s1, s2, s5 and s6 go to c3, c1, c1 and c3 (test_ttc.GOLDEN_TTC)
    code, out, err = run_cli(
        capsys, "run", fpath("ttc_diversity"), "--mechanism", "ttc",
        "--master", "s7", "s6", "s5", "s4", "s3", "s2", "s1",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[:8] == [
        "student,school,district",
        "s1,c1,d1",
        "s2,c3,d2",
        "s3,c4,d2",
        "s4,c2,d1",
        "s5,c3,d2",
        "s6,c1,d1",
        "s7,c2,d1",
    ]


@pytest.mark.parametrize("master", [["s1", "s2"], ["s1", "s1", "s2", "s3", "s4", "s5", "s6"]])
def test_run_master_not_ordering_every_student_once_exits_2(capsys, master):
    code, out, err = run_cli(
        capsys, "run", fpath("ttc_diversity"), "--mechanism", "ttc", "--master", *master
    )
    assert (code, out) == (2, "")
    assert err == (
        "validation error: DanglingReference: --master must order every student exactly once\n"
    )


def _broken_rule(edit):
    doc = json.loads(fixture_path("spda_basic").read_text())
    edit(doc["rules"][0])
    return doc


def _table(table):
    return lambda r: r.update(kind="explicit_table", table=table)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda r: r.update(kind="lottery"), "unknown kind 'lottery'"),
        (lambda r: r.update(district_cap="2"), "non-integer district_cap '2'"),
        (lambda r: r["priorities"]["c1"].append("s9"), "names unknown student 's9'"),
        (lambda r: r.update(district="d9"), "rule for district d9: unknown district"),
        (lambda r: r["school_order"].append("c3"), "school_order must cover exactly"),
        (lambda r: r["school_order"].pop(), "school_order must cover exactly"),
        (lambda r: r["priorities"].pop("c2"), "no priority list for school c2"),
        (
            lambda r: r["priorities"]["c1"].remove("s2"),
            "priority at school c1 does not rank every student once",
        ),
        (
            lambda r: r["priorities"]["c2"].append("s1"),
            "priority at school c2 does not rank every student once",
        ),
        (
            lambda r: r.update(kind="reserves_and_ceilings", reserves={"c2": {"t1": 99}}),
            "reserves at school c2 exceed capacity",
        ),
        (
            lambda r: r.update(
                kind="reserves_and_ceilings",
                reserves={"c2": {"t1": 2}},
                ceilings={"c2": {"t1": 1}},
            ),
            "reserve for type t1 exceeds its ceiling at school c2",
        ),
        (
            lambda r: r.update(reserves={"c9": {"t1": 1}}),
            "reserves at 'c9' need a known school and integer type counts",
        ),
        (
            lambda r: r.update(ceilings={"c1": {"t1": "1"}}),
            "ceilings at 'c1' need a known school and integer type counts",
        ),
        (
            lambda r: r.update(priorities=[["s1", "s2"]]),
            "rule for district d1 has non-object priorities [['s1', 's2']]",
        ),
        (lambda r: r.update(type_order=["t9"]), "type_order names unknown type 't9'"),
        (
            lambda r: r.update(district_ceilings={"t1": "x"}),
            "district_ceilings has non-integer t1 'x'",
        ),
        (
            _table([{"set": [["s9", "c1"]], "chosen": []}]),
            "table entry 1 names unknown student 's9'",
        ),
        (
            _table([{"set": [["s1"]], "chosen": []}]),
            "table entry 1 has set entry ['s1'], not a [student, school] pair",
        ),
        (
            lambda r: r.update(kind="reserves_and_ceilings", reserves={"c1": {"t1": -2}}),
            "rule for district d1: reserve for type t1 at school c1 is negative",
        ),
        (
            lambda r: r.update(ceilings={"c2": {"t1": -1}}),
            "rule for district d1: ceiling for type t1 at school c2 is negative",
        ),
        (
            lambda r: r.update(district_ceilings={"t1": -1}),
            "rule for district d1: district ceiling for type t1 is negative",
        ),
        (
            lambda r: r.update(kind="rationed_sequential", district_cap=-1),
            "rule for district d1: district_cap is negative",
        ),
        (
            lambda r: r.update(kind="rationed_sequential", district_capp=1),
            "UnknownKey: rule 1 has unknown key 'district_capp'",
        ),
        (
            _table([{"set": [], "chose": []}]),
            "rule for district d1: table entry 1 has unknown key 'chose'",
        ),
        (
            _table([
                {"set": [], "chosen": []},
                {"set": [["s1", "c1"]], "chosen": [["s2", "c1"]]},
            ]),
            "InvalidRule: rule for district d1: table entry 2 chooses outside its set",
        ),
        (
            lambda r: r["priorities"].update(c1="s1"),
            "InvalidRule: rule for district d1: priority at school c1 is not a list",
        ),
        (
            lambda r: r.update(reserves=["c1"]),
            "InvalidRule: rule for district d1: reserves is not an object",
        ),
    ],
    ids=[
        "unknown-kind",
        "string-district-cap",
        "unknown-priority-student",
        "unknown-district",
        "school-of-another-district",
        "school-order-misses-a-school",
        "school-without-priorities",
        "priority-omits-a-student",
        "priority-repeats-a-student",
        "reserves-exceed-capacity",
        "reserve-exceeds-ceiling",
        "reserve-at-unknown-school",
        "non-integer-ceiling",
        "priorities-a-list",
        "type-order-unknown-type",
        "string-district-ceiling",
        "table-unknown-student",
        "table-one-element-pair",
        "negative-reserve",
        "negative-ceiling",
        "negative-district-ceiling",
        "negative-district-cap",
        "misspelled-district-cap",
        "misspelled-table-key",
        "table-chooses-outside-its-set",
        "priority-entry-not-a-list",
        "reserves-not-an-object",
    ],
)
def test_malformed_rule_exits_2(capsys, tmp_path, edit, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_broken_rule(edit)))
    for argv in (
        ("run", str(bad), "--mechanism", "spda"),
        ("run", str(bad), "--mechanism", "spda-intra"),
        ("check-rule", str(bad), "--district", "d1", "--properties", "feasible"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "validation error" in err and message in err


def test_table_choosing_outside_its_set_exits_2_at_load(capsys, tmp_path):
    # run once failed mid-step here, and spda-intra printed a matching in
    # which s2 held both schools
    doc = {
        "types": ["t1"],
        "districts": ["d1", "d2"],
        "schools": [
            {"id": "c1", "district": "d1", "capacity": 1},
            {"id": "c2", "district": "d2", "capacity": 1},
        ],
        "students": [
            {"id": "s1", "district": "d1", "type": "t1", "preferences": ["c1", "c2"]},
            {"id": "s2", "district": "d2", "type": "t1", "preferences": ["c2", "c1"]},
        ],
        "initial_matching": {"s1": "c1", "s2": "c2"},
        "rules": [
            {
                "district": "d1",
                "kind": "explicit_table",
                "table": [
                    {"set": [], "chosen": []},
                    {"set": [["s1", "c1"]], "chosen": [["s2", "c1"]]},
                    {"set": [["s2", "c1"]], "chosen": [["s2", "c1"]]},
                    {"set": [["s1", "c1"], ["s2", "c1"]], "chosen": [["s2", "c1"]]},
                ],
            },
            {
                "district": "d2",
                "kind": "sequential_responsive",
                "school_order": ["c2"],
                "priorities": {"c2": ["s1", "s2"]},
            },
        ],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (
        ("run", str(bad), "--mechanism", "spda"),
        ("run", str(bad), "--mechanism", "spda-intra"),
        ("check-rule", str(bad), "--district", "d1", "--properties", "feasible"),
        ("audit", str(bad), "--mechanism", "spda"),
        ("bounds", str(bad)),
        ("policy-check", str(bad)),
        ("nonexistence", str(bad), "--district", "d1"),
    ):
        assert run_cli(capsys, *argv) == (
            2,
            "",
            "validation error: InvalidRule: rule for district d1: "
            "table entry 2 chooses outside its set\n",
        )


def test_rule_that_is_not_an_object_exits_2(capsys, tmp_path):
    doc = json.loads(fixture_path("spda_basic").read_text())
    doc["rules"][1] = "d2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(bad), "--mechanism", "spda")
    assert (code, out) == (2, "")
    assert "validation error" in err and "rule 2 is not an object" in err


def test_every_rule_issue_is_listed(capsys, tmp_path):
    def edit(rule):
        rule.update(kind="lottery", district_cap=1.5)
        rule["priorities"]["c2"].append("s9")

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_broken_rule(edit)))
    code, _, err = run_cli(capsys, "run", str(bad), "--mechanism", "spda")
    assert code == 2
    for message in ("unknown kind", "non-integer district_cap 1.5", "unknown student 's9'"):
        assert message in err


def _capacity_edit(value):
    return lambda doc: doc["schools"][0].update(capacity=value)


@pytest.mark.parametrize(
    "edit,messages",
    [
        (lambda doc: doc["schools"][0].pop("capacity"), ["school c1 has non-integer capacity None"]),
        (_capacity_edit("x"), ["school c1 has non-integer capacity 'x'"]),
        (_capacity_edit(1.5), ["school c1 has non-integer capacity 1.5"]),
        (_capacity_edit(True), ["school c1 has non-integer capacity True"]),
        (lambda doc: doc.update(initial_matching=[]), ["initial_matching is not an object"]),
        (
            lambda doc: (
                doc["schools"][1].update(capacity=False),
                doc["schools"][2].pop("capacity"),
                doc.update(initial_matching=[["s1", "c1"]]),
            ),
            [
                "school c2 has non-integer capacity False",
                "school c3 has non-integer capacity None",
                "initial_matching is not an object",
            ],
        ),
        (lambda doc: doc["schools"][0].pop("district"), ["school c1 has no district"]),
        (lambda doc: doc["schools"][0].pop("id"), ["school 1 has no id"]),
    ],
    ids=["no-capacity", "string-capacity", "float-capacity", "bool-capacity",
         "list-initial-matching", "every-issue-listed", "no-district", "no-id"],
)
def test_malformed_school_section_exits_2(capsys, tmp_path, edit, messages):
    doc = json.loads(fixture_path("spda_basic").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", str(bad), "--mechanism", "spda")
    assert (code, out) == (2, "")
    assert "validation error" in err
    for message in messages:
        assert message in err


def _policy(**section):
    return lambda doc: doc.update(policy=section)


IDEAL = {"kind": "manhattan_ideal", "ideal": {"c1": {"t1": 1}}}


@pytest.mark.parametrize(
    "edit,messages",
    [
        (
            lambda doc: doc["students"][0].update(preferences=5),
            ["student s1 has non-list preferences 5"],
        ),
        (
            lambda doc: doc["students"][0]["preferences"].insert(1, 5),
            ["student s1 has non-string preferences entry 5"],
        ),
        (lambda doc: doc["students"][0].pop("type"), ["student s1 has no type"]),
        (
            lambda doc: doc["students"][0].update(district=["d1"]),
            ["student s1 has non-string district ['d1']"],
        ),
        (
            lambda doc: doc.update(policy=["school_diversity"]),
            ["instance has non-object policy ['school_diversity']"],
        ),
        (_policy(form="nope"), ["policy has unknown form 'nope'"]),
        (
            _policy(form="school_diversity", ceilings={"c9": {"t1": 1}}),
            ["policy: ceilings at 'c9' need a known school and integer type counts"],
        ),
        (
            _policy(form="explicit_set", distributions=[{"c9": {"t1": 1}}]),
            ["policy: distribution 1 at 'c9' need a known school and integer type counts"],
        ),
        (_policy(form="f_lambda", f=IDEAL), ["policy lambda: rationals are p/q strings: None"]),
        (
            _policy(form="f_lambda", f=dict(IDEAL, kind="euclid"), **{"lambda": "1/2"}),
            ["unsupported policy function 'euclid'"],
        ),
        (
            lambda doc: doc.update(meta=["spda_basic"]),
            ["instance has non-object meta ['spda_basic']"],
        ),
        (
            lambda doc: doc["rules"].append(dict(doc["rules"][0])),
            ["rule for district d1: the district already has a rule"],
        ),
        (
            _policy(form="balanced_exchange", intersect_xi0="no"),
            ["policy has non-boolean intersect_xi0 'no'"],
        ),
        (
            lambda doc: doc.update(master_list=["s1", "x", "s2"]),
            ["master_list names unknown student 'x'"],
        ),
        (
            _policy(form="school_diversity", floors={"c2": {"t1": 2}}, ceilings={"c2": {"t1": 1}}),
            ["policy: floor at school 'c2', type 't1' is negative or above its ceiling"],
        ),
        (
            _policy(form="combination", floors={"c1": {"t1": -1}}),
            ["policy: floor at school 'c1', type 't1' is negative or above its ceiling"],
        ),
        (
            lambda doc: doc.update(master_list=["s1", "s1", "s2", "s3"]),
            ["master_list must order every student exactly once"],
        ),
        (
            _policy(form="school_diversity", ceilings={"c1": {"t1": -1}}),
            ["policy: ceiling at school 'c1', type 't1' is negative"],
        ),
        (
            _policy(form="district_ceilings", ceilings={"d2": {"t1": -1}}),
            ["policy: ceiling at district 'd2', type 't1' is negative"],
        ),
        (
            lambda doc: (
                doc["schools"].insert(0, dict(doc["schools"][0])),
                _policy(form="explicit_set", distributions=[{"c3": {"t1": 1}}])(doc),
            ),
            ["duplicate school id 'c1'"],
        ),
        (
            lambda doc: (
                doc["schools"][0].update(district="zz"),
                doc["students"][0]["preferences"].__setitem__(2, "c9"),
                doc["students"][1]["preferences"].remove("c2"),
            ),
            [
                "school c1 references unknown district zz",
                "student s1 ranks unknown school c9",
                "IncompletePreference: student s2 must rank every school exactly once",
            ],
        ),
        (
            lambda doc: (
                doc["students"][1].pop("type"),
                doc["rules"][1].update(district_cap=True),
                doc.update(policy={"form": "nope"}, meta=[]),
            ),
            [
                "student s2 has no type",
                "rule for district d2 has non-integer district_cap True",
                "policy has unknown form 'nope'",
                "instance has non-object meta []",
            ],
        ),
        (
            lambda doc: (
                doc.update(master=["s1"]),
                doc["schools"][0].update(capacityy=2),
                doc["students"][3].update(type_="t1"),
                _policy(
                    form="f_lambda", f=dict(IDEAL, idea={}), **{"lambda": "1/1", "floor": {}}
                )(doc),
            ),
            [
                "UnknownKey: instance has unknown key 'master'",
                "UnknownKey: school c1 has unknown key 'capacityy'",
                "UnknownKey: student s4 has unknown key 'type_'",
                "UnknownKey: policy has unknown key 'floor'",
                "UnknownKey: policy f has unknown key 'idea'",
            ],
        ),
    ],
    ids=[
        "preferences-not-a-list", "non-string-preference", "student-without-type",
        "student-district-a-list",
        "policy-not-an-object", "unknown-policy-form", "policy-ceiling-at-unknown-school",
        "distribution-at-unknown-school", "f-lambda-without-lambda", "unknown-policy-function",
        "meta-a-list",
        "second-rule-for-a-district", "string-intersect-xi0", "master-list-unknown-student",
        "floor-above-ceiling", "negative-floor", "master-list-repeats-a-student",
        "negative-box-ceiling", "negative-district-ceiling",
        "repeated-school-id", "school-of-unknown-district", "every-section-listed",
        "every-unknown-key-listed",
    ],
)
def test_malformed_section_exits_2(capsys, tmp_path, edit, messages):
    doc = json.loads(fixture_path("spda_basic").read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (
        ("run", str(bad), "--mechanism", "spda"),
        ("run", str(bad), "--mechanism", "ttc"),
        ("policy-check", str(bad)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("validation error: ")
        for message in messages:
            assert message in err


@pytest.mark.parametrize("fixture,verdict", [("impossibility", "fails"), ("ttc_diversity", "holds")])
def test_policy_check_never_imports_numpy(tmp_path, fixture, verdict):
    # the package needs nothing outside the standard library
    import subprocess
    import sys
    from pathlib import Path

    import districtmatch

    src_root = str(Path(districtmatch.__file__).resolve().parent.parent)
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": src_root}
    script = (
        "import sys\n"
        "from districtmatch.cli import main\n"
        f"code = main(['policy-check', {fpath(fixture)!r}])\n"
        "print('numpy' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"exchange_property,{verdict}" in lines
    assert lines[-1] == "False"


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    from pathlib import Path

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project.get("dependencies", []) == []


def test_python_dash_m_runs_the_cli(tmp_path):
    import subprocess
    import sys
    from pathlib import Path

    import districtmatch

    src_root = str(Path(districtmatch.__file__).resolve().parent.parent)
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": src_root}
    argv = ["run", fpath("spda_basic"), "--mechanism", "spda"]
    proc = subprocess.run(
        [sys.executable, "-m", "districtmatch", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1:5] == ["s1,c2,d1", "s2,c3,d2", "s3,c1,d1", "s4,c2,d1"]


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", fpath("spda_basic"), "--mechanism", "spda", "--threads", "2"])
    assert exc.value.code == 2


def test_stuck_exits_3(capsys):
    code, _, err = run_cli(capsys, "run", fpath("ttc_stuck"), "--mechanism", "ttc")
    assert code == 3
    assert "mechanism error" in err


def test_stuck_leaves_partial_trace(capsys, tmp_path):
    import districtmatch as dm
    from trace_reference import _ttc_trace_doc

    inst = dm.load_fixture("ttc_stuck")
    with pytest.raises(dm.Stuck) as stuck:
        dm.run_ttc(inst.problem, inst.policy, inst.master)
    trace_path = tmp_path / "trace.json"
    code, out, err = run_cli(
        capsys, "run", fpath("ttc_stuck"), "--mechanism", "ttc", "--trace", str(trace_path)
    )
    # stdout and the exit code are as without --trace
    assert (code, out) == (3, "")
    assert "mechanism error" in err
    doc = json.loads(trace_path.read_text())
    assert doc == _ttc_trace_doc(inst.problem, stuck.value.trace)
    assert doc["mechanism"] == "ttc"
    assert doc["outcome"] == []
    assert len(doc["steps"]) == stuck.value.trace.num_steps
    assert doc["steps"][0]["cycles"]


def test_check_rule_is_completion_of_exits_2(capsys):
    # an instance file cannot name the base rule the property compares against
    code, out, err = run_cli(
        capsys,
        "check-rule",
        fpath("spda_basic"),
        "--district",
        "d1",
        "--properties",
        "rationed",
        "is_completion_of",
    )
    assert (code, out) == (2, "")
    assert "validation error" in err and "is_completion_of" in err


def test_check_rule_failure_exits_4(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-rule",
        fpath("spda_basic"),
        "--district",
        "d1",
        "--properties",
        "respects_initial_matching",
    )
    assert code == 4
    assert "respects_initial_matching,fails" in out
    assert "(s1,c1)" in out and "(s3,c1)" in out


def test_check_rule_holds_exits_0(capsys):
    code, out, _ = run_cli(
        capsys,
        "check-rule",
        fpath("reserves_diversity"),
        "--district",
        "d1",
        "--properties",
        "weakly_acceptant",
        "rationed",
    )
    assert code == 0
    assert "weakly_acceptant,holds" in out
    assert "rationed,holds" in out


def _bound_instance(tmp_path, students):
    """An instance whose district d1 has two schools, so ``2 * students``
    contracts, under a reserves-and-ceilings rule with a reserve seat and a
    type ceiling at each school."""
    ids = [f"s{i}" for i in range(1, students + 1)]
    home = (students + 1) // 2  # d1's students come first
    schools = ["c1", "c2", "c3"]
    doc = {
        "meta": {"name": f"bound_{students}", "version": 1},
        "types": ["t1", "t2"],
        "districts": ["d1", "d2"],
        "schools": [
            {"id": "c1", "district": "d1", "capacity": 3},
            {"id": "c2", "district": "d1", "capacity": 3},
            {"id": "c3", "district": "d2", "capacity": students},
        ],
        "students": [
            {
                "id": s,
                "district": "d1" if i < home else "d2",
                "type": f"t{i % 2 + 1}",
                "preferences": schools[i % 3 :] + schools[: i % 3],
            }
            for i, s in enumerate(ids)
        ],
        "initial_matching": {
            s: ("c1", "c2")[i % 2] if i < home else "c3" for i, s in enumerate(ids)
        },
        "rules": [
            {
                "district": "d1",
                "kind": "reserves_and_ceilings",
                "school_order": ["c2", "c1"],
                "type_order": ["t2", "t1"],
                "priorities": {"c1": ids[::-1], "c2": ids[1::2] + ids[::2]},
                "reserves": {"c1": {"t2": 1}, "c2": {"t1": 1}},
                "ceilings": {"c1": {"t2": 2}, "c2": {"t1": 2}},
            },
            {
                "district": "d2",
                "kind": "sequential_responsive",
                "school_order": ["c3"],
                "priorities": {"c3": ids},
            },
        ],
    }
    path = tmp_path / f"bound_{students}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _reference_lines(path, names):
    """``check-rule``'s verdict lines for d1, from ``rules_reference``."""
    inst = load_instance(path)
    problem = inst.problem
    rule = inst.rules[problem.district_ids.index("d1")]
    lines = []
    for name in names:
        v = check_property_reference(rule, RuleProperty(name), problem)
        parts = [cli._contract_set(problem, X) for X in v.witness_sets]
        if v.witness_contract is not None:
            parts.append("contract " + cli._pair(problem, v.witness_contract))
        lines.append(f"{name},{cli._verdict(v)},{'; '.join(parts)}")
    return lines


def test_check_rule_at_the_all_subset_bound(capsys, tmp_path):
    # the feasible-set checks come first, then ``feasible``, the first check
    # over every subset of d1's contracts
    names = ("rationed", "acceptant", "feasible", "substitutable", "lad")
    argv = ("check-rule", _bound_instance(tmp_path, 8), "--district", "d1", "--properties")
    assert len(load_instance(argv[1]).problem.district_contracts(0)) == 16
    want = _reference_lines(argv[1], names)
    code, out, err = run_cli(capsys, *argv, *names)
    assert out.splitlines() == ["property,verdict,witness", *want] and err == ""
    assert code == (4 if any(",fails," in line for line in want) else 0)
    # two contracts more: the verdicts before ``feasible`` print, then it refuses
    argv = ("check-rule", _bound_instance(tmp_path, 9), *argv[2:])
    want = _reference_lines(argv[1], names[:2])
    code, out, err = run_cli(capsys, *argv, *names)
    assert out.splitlines() == ["property,verdict,witness", *want]
    assert (code, err) == (3, "error: enumeration universe has size 262144, budget is 65536\n")


def test_check_rule_requires_properties(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check-rule", fpath("spda_basic"), "--district", "d1", "--properties"])
    assert exc.value.code == 2


def test_bounds_golden(capsys):
    code, out, _ = run_cli(capsys, "bounds", fpath("reserves_diversity"), "--alpha", "3/4")
    assert code == 0
    lines = out.splitlines()
    assert "district,type,implied_floor,implied_ceiling" in lines
    assert "d1,t1,1,2" in lines
    assert "d1,t2,2,3" in lines
    assert "d2,t1,2,3" in lines
    assert "d2,t2,0,1" in lines
    assert "t1,d2,d1,3/4" in lines
    assert "condition,satisfied" in lines


def test_bounds_tight_alpha_exits_5(capsys):
    code, out, _ = run_cli(capsys, "bounds", fpath("reserves_diversity"), "--alpha", "1/6")
    assert code == 5
    assert "condition,violated" in out


def test_bounds_infeasible_exits_3(capsys, tmp_path):
    def edit(doc):
        for school, per_type in doc["policy"]["ceilings"].items():
            for t in per_type:
                per_type[t] = 0

    code, _, err = run_cli(capsys, "bounds", _reserves_diversity_variant(tmp_path, edit))
    assert code == 3
    assert "mechanism error" in err


def _reserves_diversity_variant(tmp_path, edit):
    """The reserves_diversity fixture after ``edit`` of its JSON document."""
    doc = json.loads(fixture_path("reserves_diversity").read_text())
    edit(doc)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_bounds_district_without_home_students(capsys, tmp_path):
    # d2's students live in d1: d2 has no share, so no pair and no delta row
    def edit(doc):
        for student in doc["students"]:
            student["district"] = "d1"
        for school in doc["schools"]:
            if school["district"] == "d1":
                school["capacity"] += 4
        for per_type in doc["policy"]["ceilings"].values():
            for t in per_type:
                per_type[t] = 9

    code, out, err = run_cli(capsys, "bounds", _reserves_diversity_variant(tmp_path, edit))
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "district,type,implied_floor,implied_ceiling",
        "d1,t1,4,4",
        "d1,t2,3,3",
        "d2,t1,0,0",
        "d2,t2,0,0",
        "type,district,other,delta",
        "max_delta,0/1",
        "alpha,3/4",
        "condition,satisfied",
    ]


def test_bounds_bad_alpha_prints_nothing(capsys):
    code, out, err = run_cli(capsys, "bounds", fpath("reserves_diversity"), "--alpha", "x")
    assert (code, out) == (2, "")
    assert err.startswith("validation error: DanglingReference: bad rational 'x'")
    # a float spelling Fraction would read as 3/4
    code, out, err = run_cli(capsys, "bounds", fpath("reserves_diversity"), "--alpha", "75e-2")
    assert (code, out) == (2, "")
    assert err.startswith("validation error: DanglingReference: rationals are p/q strings: '75e-2'")


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["bounds", "reserves_diversity", "--alpha", ""],
            "validation error: DanglingReference: bad rational '': "
            "Invalid literal for Fraction: ''\n",
        ),
        (
            ["run", "spda_basic", "--mechanism", "spda-intra", "--trace", ""],
            "error: --mechanism spda-intra keeps no step trace; drop --trace\n",
        ),
    ],
    ids=["alpha", "spda-intra-trace"],
)
def test_an_empty_option_is_a_value(capsys, argv, err):
    # "" is a bad rational and a trace path, not an absent option
    assert run_cli(capsys, argv[0], fpath(argv[1]), *argv[2:]) == (2, "", err)


def _must_order(where):
    return f"validation error: DanglingReference: {where} must order every student exactly once\n"


@pytest.mark.parametrize(
    "edit,argv,code,tail,err",
    [
        (lambda doc: doc.update(alpha=0), ["bounds"], 5, ["alpha,0/1", "condition,violated"], ""),
        (
            lambda doc: doc.update(alpha=False),
            ["bounds"],
            2,
            [],
            "validation error: DanglingReference: alpha: rationals are p/q strings: False\n",
        ),
        (
            lambda doc: doc.update(master_list=[]),
            ["run", "--mechanism", "ttc"],
            2,
            [],
            _must_order("master_list"),
        ),
        (
            lambda doc: None,
            ["run", "--mechanism", "ttc", "--master"],
            2,
            [],
            _must_order("--master"),
        ),
    ],
    ids=["alpha-zero", "alpha-false", "empty-master-list", "bare-master-option"],
)
def test_only_an_absent_field_means_none(capsys, tmp_path, edit, argv, code, tail, err):
    # 0, false and [] are values, not "no alpha" or "no master list"
    path = _reserves_diversity_variant(tmp_path, edit)
    got_code, out, got_err = run_cli(capsys, argv[0], path, *argv[1:])
    assert (got_code, out.splitlines()[-2:], got_err) == (code, tail, err)


def test_bounds_infeasible_ceilings_message(capsys, tmp_path):
    # no t1 student fits under zero t1 ceilings; the three t2 students route
    def edit(doc):
        for per_type in doc["policy"]["ceilings"].values():
            per_type["t1"] = 0

    code, out, err = run_cli(capsys, "bounds", _reserves_diversity_variant(tmp_path, edit))
    assert (code, out) == (3, "")
    assert err == "mechanism error: constraint system routes only 3 of 7 students\n"


def test_audit_clean_exits_0(capsys):
    code, out, _ = run_cli(capsys, "audit", fpath("spda_basic"), "--mechanism", "spda")
    assert code == 0
    assert "runs,24" in out
    assert "exhaustive,true" in out
    assert "oracle_agreement,true" in out


def test_audit_ttc_oracle_agreement(capsys):
    code, out, _ = run_cli(capsys, "audit", fpath("ttc_diversity"), "--mechanism", "ttc")
    assert code == 0
    assert "oracle_agreement,true" in out


def test_audit_finding_exits_6(capsys):
    code, out, _ = run_cli(
        capsys, "audit", fpath("impossibility"), "--mechanism", "efficient-selector"
    )
    assert code == 6


def test_audit_budget_zero_not_exhaustive(capsys):
    code, out, _ = run_cli(
        capsys, "audit", fpath("spda_basic"), "--mechanism", "spda", "--budget", "0"
    )
    assert code == 0
    assert "exhaustive,false" in out


@pytest.mark.parametrize("budget", ["-1", "x", "1.5"])
def test_audit_budget_must_be_a_non_negative_integer(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["audit", fpath("spda_basic"), "--mechanism", "spda", "--budget", budget])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert f"argument --budget: must be a non-negative integer: '{budget}'" in err


def test_policy_check(capsys):
    code, out, _ = run_cli(capsys, "policy-check", fpath("impossibility"))
    assert code == 0
    assert "initial_matching_in_goal,true" in out
    assert "exchange_property,fails" in out


def test_nonexistence_unsat(capsys):
    code, out, _ = run_cli(
        capsys, "nonexistence", fpath("nonexistence"), "--district", "d1"
    )
    assert code == 0
    assert "satisfiable,false" in out


@pytest.mark.parametrize("district", ["d1", "d2"])
def test_nonexistence_budget_must_be_a_non_negative_integer(capsys, district):
    with pytest.raises(SystemExit) as exc:
        main(["nonexistence", fpath("nonexistence"), "--district", district, "--budget", "-5"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "argument --budget: must be a non-negative integer: '-5'" in err


@pytest.mark.parametrize("district", ["d1", "d2"])
def test_nonexistence_budget_zero_exits_3(capsys, district):
    # the root symmetry split counts its nodes against the budget, as the
    # search below it does
    code, out, err = run_cli(
        capsys, "nonexistence", fpath("nonexistence"), "--district", district, "--budget", "0"
    )
    assert (code, out, err) == (3, "", "error: search budget exceeded after 1 nodes\n")


@pytest.mark.parametrize("district,nodes", [("d1", 2), ("d2", 3)])
def test_nonexistence_budget_at_or_above_the_nodes_changes_nothing(capsys, district, nodes):
    argv = ("nonexistence", fpath("nonexistence"), "--district", district)
    want = run_cli(capsys, *argv)
    assert want[0] == 0 and f"nodes,{nodes}\n" in want[1]
    for budget in (nodes, nodes + 1, 2 * 10**6):
        assert run_cli(capsys, *argv, "--budget", str(budget)) == want
    code, out, err = run_cli(capsys, *argv, "--budget", str(nodes - 1))
    assert (code, out) == (3, "")
    assert err == f"error: search budget exceeded after {nodes} nodes\n"


def test_nonexistence_without_symmetry(capsys):
    code, out, _ = run_cli(
        capsys, "nonexistence", fpath("nonexistence"), "--district", "d1", "--no-symmetry"
    )
    assert code == 0
    assert out == (
        "satisfiable,false\n"
        "nodes,4\n"
        "branch,outcome\n"
        "{(s1,c1)},all extensions contradict\n"
        "{(s2,c1)},all extensions contradict\n"
        "{(s3,c1)},all extensions contradict\n"
        "{(s4,c1)},all extensions contradict\n"
    )


@pytest.mark.parametrize(
    "fixture,district,expected",
    [
        ("nonexistence", "d2", "satisfiable,true\nnodes,3\nwitness_table_entries,16\n"),
        (
            "impossibility",
            "d1",
            "satisfiable,false\nnodes,0\nbranch,outcome\n"
            "{},arc consistency wiped out a domain\n",
        ),
    ],
    ids=["satisfiable", "wiped-out-at-the-root"],
)
def test_nonexistence_report(capsys, fixture, district, expected):
    code, out, err = run_cli(capsys, "nonexistence", fpath(fixture), "--district", district)
    assert (code, out, err) == (0, expected, "")


def test_nonexistence_past_its_size_bound_exits_3(capsys, monkeypatch):
    # the fixture's district lists 4**4 = 256 sets
    monkeypatch.setattr(oracle, "NONEXISTENCE_SET_BOUND", 255)
    code, out, err = run_cli(
        capsys, "nonexistence", fpath("nonexistence"), "--district", "d1"
    )
    assert (code, out) == (3, "")
    assert err == "error: enumeration universe has size 256, budget is 255\n"


def _traces(problem, inst):
    """(writer, reference document, trace) for each trace the instance's runs leave."""
    import districtmatch as dm
    from trace_reference import _spda_trace_doc, _ttc_trace_doc

    traces = []
    if inst.rules and len(inst.rules) == problem.num_districts:
        traces.append(
            (cli._write_spda_trace, _spda_trace_doc, dm.run_spda(problem, inst.rules))
        )
    if inst.policy is not None:
        try:
            trace = dm.run_ttc(problem, inst.policy, inst.master)
        except dm.DistrictMatchError as exc:
            trace = getattr(exc, "trace", None)
        if trace is not None:
            traces.append((cli._write_ttc_trace, _ttc_trace_doc, trace))
    return traces


def _assert_trace_bytes(problem, write, reference, trace, tmp_path):
    from trace_reference import trace_text

    got = tmp_path / "got.json"
    assert cli._write_trace(str(got), write, problem, trace)
    assert got.read_bytes() == trace_text(reference(problem, trace)).encode()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_trace_writer_matches_json_dump_on_fixtures(name, tmp_path):
    import districtmatch as dm

    inst = dm.load_fixture(name)
    for write, reference, trace in _traces(inst.problem, inst):
        _assert_trace_bytes(inst.problem, write, reference, trace, tmp_path)


def test_trace_writer_matches_json_dump_on_random_markets(tmp_path):
    import random

    import districtmatch as dm
    from helpers import random_problem, sequential_rules
    from districtmatch.instances import Instance

    rng = random.Random(11)
    for _ in range(40):
        problem = random_problem(rng)
        inst = Instance(
            problem=problem,
            rules=sequential_rules(rng, problem),
            policy=dm.balanced_exchange_goal(),
            master=None,
            alpha=None,
            meta={},
        )
        for write, reference, trace in _traces(problem, inst):
            _assert_trace_bytes(problem, write, reference, trace, tmp_path)


def _edge_problem(districts=("d1", "d2")):
    """Three students and three schools, under ids that need escaping."""
    from districtmatch.model import ProblemSpec, validate_problem

    a, b = districts
    return validate_problem(
        ProblemSpec(
            types=("t\\1", "\u00e9"),
            districts=districts,
            schools=(('c"1', a, 2), ("c\u2603", b, 1), ("c\n3", b, 1)),
            students=(
                ('s"1', a, "t\\1", ('c"1', "c\u2603", "c\n3")),
                ("s\\2", b, "\u00e9", ("c\u2603", 'c"1', "c\n3")),
                ("s\u00e93", a, "\u00e9", ("c\n3", "c\u2603", 'c"1')),
            ),
            initial_matching={'s"1': 'c"1', "s\\2": "c\u2603", "s\u00e93": 'c"1'},
        )
    )


def _edge_traces():
    """Hand-built traces at the edges of the format: no steps, empty steps,
    proposals and outcomes, escaped ids, district ids whose string order is
    not their index order, and a cycle with no edge."""
    import dataclasses

    import districtmatch as dm
    from districtmatch.spda import SpdaStep
    from districtmatch.ttc import TtcStep
    from trace_reference import _spda_trace_doc, _ttc_trace_doc

    def spda(problem, *steps, outcome=()):
        trace = dm.Trace(tuple(steps), frozenset(outcome))
        return (problem, cli._write_spda_trace, _spda_trace_doc, trace)

    def ttc(problem, *steps, outcome=()):
        trace = dm.Trace(tuple(steps), frozenset(outcome))
        return (problem, cli._write_ttc_trace, _ttc_trace_doc, trace)

    p = _edge_problem()
    q = _edge_problem(("d2", "d10"))
    x = {(s, c): p.contract(s, c) for s in range(3) for c in range(3)}
    held = frozenset([x[0, 0], x[1, 1], x[2, 0]])
    stuck = dm.load_fixture("ttc_stuck")
    with pytest.raises(dm.Stuck) as exc:
        dm.run_ttc(stuck.problem, stuck.policy, stuck.master)
    escaped = dataclasses.replace(
        stuck.problem,
        student_ids=tuple(f'"{v}\\\u00e9' for v in stuck.problem.student_ids),
        school_ids=tuple(f"{v}\u2603\t" for v in stuck.problem.school_ids),
        type_ids=tuple(f"\\{v}" for v in stuck.problem.type_ids),
    )
    return [
        spda(p),
        ttc(p),
        spda(p, SpdaStep((), ())),
        spda(
            q,
            SpdaStep(((0, ((2, 0), (0, 0))), (1, ((1, 1),))), ()),
            SpdaStep(((0, ()), (1, ())), ()),
            outcome=held,
        ),
        spda(p, SpdaStep(((0, ((0, 0),)), (1, ((2, 2), (1, 2)))), ((1, 2),))),
        ttc(p, TtcStep((), (), (), (), ())),
        ttc(
            p,
            TtcStep(
                active=((0, 0), (0, 1), (1, 1)),
                slot_pointer=(((0, 0), 0), ((0, 1), 2), ((1, 1), 1)),
                student_pointer=((0, (0, 0)), (1, (0, 1)), (2, (1, 1))),
                cycles=(((0, (0, 0)),), (), ((1, (0, 1)), (2, (1, 1)))),
                removed=((2, 0), (2, 1)),
            ),
            outcome=[x[0, 0], x[1, 0], x[2, 1]],
        ),
        ttc(escaped, *exc.value.trace.steps),
    ]


@pytest.mark.parametrize("doc", _edge_traces())
def test_trace_writer_matches_json_dump_on_edge_documents(doc, tmp_path):
    _assert_trace_bytes(*doc, tmp_path)


def test_run_spda_failure_leaves_partial_trace(capsys, monkeypatch, tmp_path):
    # deferred acceptance that does not settle raises with the steps it took
    import districtmatch as dm
    from trace_reference import _spda_trace_doc, trace_text

    inst = dm.load_fixture("spda_basic")
    partial = dm.run_spda(inst.problem, inst.rules)
    partial = type(partial)(partial.steps, frozenset())

    def no_convergence(problem, rules):
        raise dm.RuleViolation("no convergence", trace=partial)

    monkeypatch.setattr(cli, "run_spda", no_convergence)
    trace_path = tmp_path / "trace.json"
    code, out, err = run_cli(
        capsys, "run", fpath("spda_basic"), "--mechanism", "spda", "--trace", str(trace_path)
    )
    assert (code, out, err) == (3, "", "mechanism error: no convergence\n")
    assert trace_path.read_text() == trace_text(_spda_trace_doc(inst.problem, partial))


def test_run_spda_error_leaves_partial_trace(capsys, tmp_path):
    # any package error from a step leaves the steps taken before it: d1's
    # table lists only {}, so s1's second proposal, to c1, sends it a set
    # outside its table at step 2
    from trace_reference import trace_text

    doc = {
        "types": ["t1"],
        "districts": ["d1", "d2"],
        "schools": [
            {"id": "c1", "district": "d1", "capacity": 1},
            {"id": "c2", "district": "d2", "capacity": 1},
        ],
        "students": [
            {"id": "s1", "district": "d1", "type": "t1", "preferences": ["c2", "c1"]},
            {"id": "s2", "district": "d2", "type": "t1", "preferences": ["c2", "c1"]},
        ],
        "initial_matching": {"s1": "c1", "s2": "c2"},
        "rules": [
            {"district": "d1", "kind": "explicit_table", "table": [{"set": [], "chosen": []}]},
            {
                "district": "d2",
                "kind": "sequential_responsive",
                "school_order": ["c2"],
                "priorities": {"c2": ["s2", "s1"]},
            },
        ],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(doc))
    failed = (3, "", "error: set outside the explicit table's declared universe\n")
    assert run_cli(capsys, "run", str(path), "--mechanism", "spda") == failed
    trace_path = tmp_path / "trace.json"
    argv = ("run", str(path), "--mechanism", "spda", "--trace", str(trace_path))
    assert run_cli(capsys, *argv) == failed
    assert trace_path.read_text() == trace_text({
        "mechanism": "spda",
        "outcome": [],
        "steps": [{
            "proposals": {"d1": [], "d2": [["s1", "c2"], ["s2", "c2"]]},
            "rejected": [["s1", "c2"]],
            "tentative": [["s2", "c2"]],
        }],
    })


@pytest.mark.parametrize("where", ["missing_dir", "a_dir", "empty"])
@pytest.mark.parametrize(
    "fixture, mechanism", [("spda_basic", "spda"), ("ttc_diversity", "ttc")]
)
def test_unwritable_trace_path_exits_2(capsys, tmp_path, where, fixture, mechanism):
    # an empty path is a path, not "no --trace"
    path = {"missing_dir": tmp_path / "no" / "t.json", "a_dir": tmp_path, "empty": ""}[where]
    code, out, err = run_cli(capsys, "run", fpath(fixture), "--mechanism", mechanism)
    assert code == 0
    got = run_cli(
        capsys, "run", fpath(fixture), "--mechanism", mechanism, "--trace", str(path)
    )
    # the full report, no trace line, and one line on stderr naming the path
    assert got[:2] == (2, out)
    assert got[2].startswith("error: cannot write trace: [Errno ")
    assert got[2].endswith(f"{str(path)!r}\n") and got[2].count("\n") == 1


def test_stuck_with_unwritable_trace_path_exits_3(capsys, tmp_path):
    path = tmp_path / "no" / "t.json"
    code, out, err = run_cli(
        capsys, "run", fpath("ttc_stuck"), "--mechanism", "ttc", "--trace", str(path)
    )
    assert (code, out) == (3, "")
    cannot, mechanism, rest = err.split("\n")
    assert cannot == (
        f"error: cannot write trace: [Errno 2] No such file or directory: {str(path)!r}"
    )
    assert mechanism.startswith("mechanism error: ") and rest == ""
