"""Command-line behavior: outputs, exit codes, determinism."""

import json

import pytest

from districtmatch import cli, oracle
from districtmatch.cli import _build_parser, main
from districtmatch.fixtures import FIXTURE_NAMES, fixture_path
from districtmatch.rules import RuleProperty

from helpers import count_calls


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
            stdouts.append(proc.stdout.replace(str(trace), "TRACE"))
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
    ],
    ids=["not_utf8", "nested_too_deeply"],
)
def test_undecodable_instance_exits_2(capsys, tmp_path, raw, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code, out, err = run_cli(capsys, "run", str(bad), "--mechanism", "spda")
    assert (code, out) == (2, "")
    assert "validation error" in err and message in err


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


def test_run_master_unknown_student_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "run", fpath("ttc_diversity"), "--mechanism", "ttc", "--master", "s1", "nobody"
    )
    assert (code, out) == (2, "")
    assert "validation error" in err and "unknown student 'nobody'" in err


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
        "distribution-at-unknown-school", "f-lambda-without-lambda", "meta-a-list",
        "second-rule-for-a-district", "string-intersect-xi0", "master-list-unknown-student",
        "floor-above-ceiling", "negative-floor", "master-list-repeats-a-student",
        "negative-box-ceiling", "negative-district-ceiling",
        "repeated-school-id", "every-section-listed", "every-unknown-key-listed",
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
    from districtmatch.spda import SpdaStep, SpdaTrace
    from districtmatch.ttc import TtcStep, TtcTrace
    from trace_reference import _spda_trace_doc, _ttc_trace_doc

    def spda(problem, *steps, outcome=()):
        trace = SpdaTrace(tuple(steps), frozenset(outcome))
        return (problem, cli._write_spda_trace, _spda_trace_doc, trace)

    def ttc(problem, *steps, outcome=()):
        trace = TtcTrace(tuple(steps), frozenset(outcome))
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
        spda(p, SpdaStep((), frozenset(), frozenset())),
        spda(
            q,
            SpdaStep(
                ((0, frozenset([x[0, 0], x[2, 0]])), (1, frozenset([x[1, 1]]))),
                held,
                frozenset(),
            ),
            SpdaStep(((0, frozenset()), (1, frozenset())), held, frozenset()),
            outcome=held,
        ),
        spda(
            p,
            SpdaStep(
                ((0, frozenset([x[0, 0]])), (1, frozenset([x[1, 2], x[2, 2]]))),
                frozenset([x[0, 0], x[2, 2]]),
                frozenset([x[1, 2]]),
            ),
        ),
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


@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
@pytest.mark.parametrize(
    "fixture, mechanism", [("spda_basic", "spda"), ("ttc_diversity", "ttc")]
)
def test_unwritable_trace_path_exits_2(capsys, tmp_path, where, fixture, mechanism):
    path = tmp_path / "no" / "t.json" if where == "missing_dir" else tmp_path
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
