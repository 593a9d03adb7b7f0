"""The layer tracer: restores everything, changes no output byte, and its
self times and counts are consistent."""

import sys

import pytest

import run
import tracing
import workloads
from districtmatch.fixtures import fixture_path


def fixture_session():
    """A session over the shipped fixtures touching every traced layer."""
    f = lambda name: str(fixture_path(name))  # noqa: E731
    C = workloads.Command
    any_exit = frozenset(range(8))
    return [
        C(("run", f("reserves_diversity"), "--mechanism", "spda"), any_exit),
        C(("run", f("ttc_diversity"), "--mechanism", "ttc"), any_exit),
        C(("audit", f("spda_basic"), "--mechanism", "spda"), any_exit),
        C(("audit", f("ttc_diversity"), "--mechanism", "ttc"), any_exit),
        C(("check-rule", f("reserves_diversity"), "--district", "d1", "--properties",
           "feasible", "substitutable", "irc"), any_exit),
        C(("policy-check", f("reserves_diversity")), any_exit),
        C(("bounds", f("reserves_diversity")), any_exit),
        C(("nonexistence", f("nonexistence"), "--district", "d1"), any_exit),
    ]


@pytest.fixture(scope="module")
def cli():
    return run.fresh_cli()


def package_bindings():
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "districtmatch" or name.startswith("districtmatch."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    chooser = sys.modules["districtmatch.rules"].Chooser
    out[("Chooser", "choose_mask")] = vars(chooser)["choose_mask"]
    return out


def traced(cli, commands):
    tracer = tracing.Tracer()
    with tracer:
        outputs = [run.call(cli, cmd) for cmd in commands]
    return tracer, outputs


def test_wrappers_are_restored(cli):
    before = package_bindings()
    tracer = tracing.Tracer()
    tracer.install()
    patched = package_bindings()
    assert any(patched[k] is not before[k] for k in before)
    tracer.uninstall()
    after = package_bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_are_restored_after_an_error(cli):
    before = package_bindings()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = package_bindings()
    assert all(after[k] is before[k] for k in before)


def test_tracing_changes_no_output_byte(cli):
    commands = fixture_session()
    plain = [run.call(cli, cmd) for cmd in commands]
    _, outputs = traced(cli, commands)
    assert outputs == plain


def test_self_time_within_span(cli):
    tracer, _ = traced(cli, fixture_session())
    own, self_s = tracer.self_times()
    assert tracer.spans
    for duration, exclusive in zip(own, self_s):
        assert exclusive <= duration
        assert exclusive >= -1e-9


def test_every_layer_is_seen(cli):
    tracer, _ = traced(cli, fixture_session())
    names = {rec[0] for rec in tracer.spans} | {name for _, name in tracer.leaves}
    for expected in ("cli.run", "cli.audit", "instances.load", "model.validate",
                     "rules.check_property", "rules.choose_mask", "spda.run",
                     "spda.is_stable", "spda.verdicts", "ttc.run", "ttc.permissibility",
                     "policy.members", "policy.is_mconvex", "policy.implied_bounds",
                     "oracle.audit", "oracle.with_preferences", "oracle.efficient_ir",
                     "oracle.nonexistence"):
        assert any(n == expected or n.startswith(expected + ".") for n in names), expected


def test_counts_repeat_exactly(cli):
    counts = []
    for _ in range(2):
        tracer, _ = traced(cli, fixture_session())
        metrics = tracing.layer_metrics(tracer)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["rules.choose.calls"] > 0
    assert counts[0]["ttc.permissibility.tests"] > 0


def test_tail_percentile_leaves_ten_sessions():
    for n in (20, 35, 60, 200):
        p = run.tail_percentile(n)
        beyond = n - max(1, -(-p * n // 100))
        assert beyond >= 10
    assert run.tail_percentile(5) == 50
