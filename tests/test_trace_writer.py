"""The step-by-step trace writers of ``cli`` against the reference documents
of ``trace_reference``, rendered by ``json.dumps(doc, indent=2,
sort_keys=True)``, on seeded random markets and on drawn traces."""

import dataclasses
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import districtmatch as dm
from districtmatch import cli
from districtmatch.policy import GoalForm
from districtmatch.rules import RuleKind
from districtmatch.spda import SpdaStep, SpdaTrace
from districtmatch.ttc import TtcStep, TtcTrace

from helpers import random_goal, random_problem, sequential_rules
from trace_reference import _spda_trace_doc, _ttc_trace_doc, trace_text

WRITERS = {
    SpdaTrace: (cli._write_spda_trace, _spda_trace_doc),
    TtcTrace: (cli._write_ttc_trace, _ttc_trace_doc),
}

# quotes, backslashes, controls and non-ASCII, which json escapes
ID_TEXT = st.text('a1"\\/\n\t\x7fé☃\U0001f600', max_size=3)


def assert_same_bytes(problem, trace):
    write, reference = WRITERS[type(trace)]
    fh = io.StringIO()
    write(fh, problem, trace)
    assert fh.getvalue() == trace_text(reference(problem, trace))


def renamed(draw, problem):
    """The problem under drawn ids; two districts are sometimes d2 and d10,
    whose string order is not their index order."""

    def ids(n):
        return tuple(draw(st.lists(ID_TEXT, min_size=n, max_size=n, unique=True)))

    districts = ids(problem.num_districts)
    if problem.num_districts == 2 and draw(st.booleans()):
        districts = ("d2", "d10")
    return dataclasses.replace(
        problem,
        student_ids=ids(problem.num_students),
        district_ids=districts,
        school_ids=ids(problem.num_schools),
        type_ids=ids(problem.num_types),
    )


def market_traces(seed):
    """The traces SPDA and TTC leave on one random market, finished or not."""
    rng = random.Random(seed)
    problem = random_problem(rng, students=(2, 6))
    kind = rng.choice([RuleKind.SEQUENTIAL_RESPONSIVE, RuleKind.RATIONED_SEQUENTIAL])
    traces = [dm.run_spda(problem, sequential_rules(rng, problem, kind))]
    goal = random_goal(rng, problem, rng.choice(list(GoalForm)))
    try:
        traces.append(dm.run_ttc(problem, goal))
    except (dm.Stuck, dm.RuleViolation) as exc:
        traces.append(exc.trace)
    except dm.PolicyViolatedAtStart:
        pass
    return problem, traces


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_writers_match_reference_on_random_markets(seed, data):
    problem, traces = market_traces(seed)
    problem = renamed(data.draw, problem)
    for trace in traces:
        assert_same_bytes(problem, trace)
        # a failed run carries the steps it took and no outcome
        k = data.draw(st.integers(0, trace.num_steps), label="steps kept")
        assert_same_bytes(problem, type(trace)(trace.steps[:k], frozenset()))
        if isinstance(trace, TtcTrace):
            # steps cut from the middle of a run; an SPDA trace starts from
            # nothing held (see the test below)
            assert_same_bytes(problem, type(trace)(trace.steps[k:], trace.outcome))


def test_spda_writer_refuses_a_trace_cut_from_the_middle():
    # its step k rejects a contract held before it, which the cut trace
    # neither holds nor proposes
    inst = dm.load_fixture("spda_rationed")
    trace = dm.run_spda(inst.problem, inst.rules)
    held = list(trace.tentative())
    k = next(k for k in range(1, trace.num_steps) if trace.steps[k].rejected & held[k - 1])
    cut = SpdaTrace(trace.steps[k:], trace.outcome)
    with pytest.raises(ValueError, match="SPDA step 0 rejects"):
        cli._write_spda_trace(io.StringIO(), inst.problem, cut)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_writers_match_reference_on_the_stuck_fixture(data):
    # drawn goals seldom leave a run stuck; the fixture always does
    inst = dm.load_fixture("ttc_stuck")
    try:
        dm.run_ttc(inst.problem, inst.policy, inst.master)
    except dm.Stuck as exc:
        assert_same_bytes(renamed(data.draw, inst.problem), exc.trace)
    else:
        raise AssertionError("ttc_stuck finished")


@st.composite
def drawn_traces(draw):
    """A problem and a trace of arbitrary, possibly empty, steps over it; an
    SPDA trace's steps keep ``SpdaStep``'s contract."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    problem = renamed(draw, random_problem(rng, students=(2, 5)))
    students = range(problem.num_students)
    schools, types = range(problem.num_schools), range(problem.num_types)
    contracts = [problem.contract(s, c) for s in students for c in schools]
    slots = [(c, t) for c in schools for t in types]

    def subset(items):
        return draw(st.lists(st.sampled_from(items), unique=True)) if items else []

    def matching():
        return frozenset(subset(contracts))

    steps, held = [], set()
    spda = draw(st.booleans())
    for _ in range(draw(st.integers(0, 3))):
        if spda:
            # proposals not already held; rejections from held and proposed
            districts = sorted(subset(list(range(problem.num_districts))))
            new = subset([x for x in contracts if x not in held and x.district in districts])
            held.update(new)
            rejected = frozenset(subset(sorted(held)))
            held -= rejected
            steps.append(
                SpdaStep(
                    tuple((d, frozenset(x for x in new if x.district == d)) for d in districts),
                    rejected,
                )
            )
        else:
            pointing = sorted(subset(slots)), sorted(subset(list(students)))
            steps.append(
                TtcStep(
                    active=tuple(subset(slots)),
                    slot_pointer=tuple((p, rng.choice(students)) for p in pointing[0]),
                    student_pointer=tuple((s, rng.choice(slots)) for s in pointing[1]),
                    cycles=tuple(
                        tuple((s, rng.choice(slots)) for s in subset(list(students)))
                        for _ in range(draw(st.integers(0, 2)))
                    ),
                    removed=tuple(subset(slots)),
                )
            )
    return problem, (SpdaTrace if spda else TtcTrace)(tuple(steps), matching())


@settings(max_examples=100, deadline=None)
@given(drawn=drawn_traces())
def test_writers_match_reference_on_drawn_traces(drawn):
    assert_same_bytes(*drawn)
