"""The benchmark's workloads: which markets, which CLI session, which checks.

A *session* is the fixed list of CLI commands a user runs on one market.
Each command carries the exit codes it may end with and the lines its
standard output must hold; a command fails when either does not hold, and a
wrong output (as opposed to a wrong exit code) also makes the run incorrect.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import gen

RULE_PROPERTIES = (
    "feasible",
    "acceptant",
    "weakly_acceptant",
    "d_weakly_acceptant",
    "rationed",
    "respects_initial_matching",
    "favors_own_students",
    "substitutable",
    "weakly_substitutable",
    "lad",
    "irc",
    "path_independent",
    "school_ceilings",
    "district_ceilings",
)


@dataclass(frozen=True)
class Command:
    argv: tuple
    exits: frozenset
    must_print: tuple = ()  # lines that must appear in stdout
    trace: str = ""  # path of the --trace file the command writes, if any


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int  # markets generated at set-up, cycled through by the timed loop
    trace_sessions: int  # sessions in a traced run (fixed, so counts repeat)
    make: object = field(repr=False)  # (seed, index, workdir) -> {role: instance path}
    session: object = field(repr=False)  # (market, workdir) -> [Command]


def _write(doc, workdir, name):
    path = os.path.join(workdir, name)
    gen.write(doc, path)
    return path


# -- spda_market --------------------------------------------------------------

SPDA_PARAMS = gen.MarketParams(
    students=300, districts=4, schools=20, types=3, rule_kinds=gen.RULE_KINDS
)


def _spda_make(seed, index, workdir):
    doc = gen.generate(SPDA_PARAMS, seed, "spda_market", index)
    return {"market": _write(doc, workdir, f"spda-{index}.json")}


def _spda_session(market, workdir):
    inst = market["market"]
    trace = os.path.join(workdir, "spda-trace.json")
    return [
        Command(("run", inst, "--mechanism", "spda", "--trace", trace), frozenset({0}),
                ("metric,value", "policy_goal,n/a"), trace),
        Command(("audit", inst, "--mechanism", "spda", "--budget", "2"),
                frozenset({0, 6}), ("oracle_agreement,true",)),
    ]


# -- ttc_market ---------------------------------------------------------------

TTC_PARAMS = gen.MarketParams(
    students=120, districts=2, schools=8, types=2, ceilings_policy=True, master="file"
)


def _ttc_make(seed, index, workdir):
    doc = gen.generate(TTC_PARAMS, seed, "ttc_market", index)
    return {"market": _write(doc, workdir, f"ttc-{index}.json")}


def _ttc_session(market, workdir):
    inst = market["market"]
    trace = os.path.join(workdir, "ttc-trace.json")
    return [
        Command(("run", inst, "--mechanism", "ttc", "--trace", trace), frozenset({0}),
                ("individual_rationality,holds", "policy_goal,satisfied"), trace),
    ]


# -- desk_oracle --------------------------------------------------------------


def desk_params(index):
    """Sizes and d1's rule kind cycle with the market index, so every pool
    holds the same mix and only the seeded draws differ between seeds.  A
    6-student session costs about 3x a 5-student one, so session times form
    two clusters; with one market in three at 6 students the median falls
    inside the 5-student cluster and the tail inside the 6-student one, not
    in the gap between them."""
    return gen.MarketParams(
        students=(5, 5, 6)[index % 3],
        districts=2,
        schools=4,
        types=2,
        slack=0.3,
        rule_kinds=(gen.RULE_KINDS[index % len(gen.RULE_KINDS)], "sequential_responsive"),
        ceilings_policy=True,
        master="random",
    )


def _desk_make(seed, index, workdir):
    doc = gen.generate(desk_params(index), seed, "desk_oracle", index)
    return {
        "market": _write(doc, workdir, f"desk-{index}.json"),
        "variant": _write(
            gen.district_ceilings_variant(doc, "d1"), workdir, f"desk-{index}-dc.json"
        ),
    }


def _desk_session(market, workdir):
    inst, variant = market["market"], market["variant"]
    agree = ("oracle_agreement,true", "exhaustive,true")
    return [
        Command(("audit", inst, "--mechanism", "spda"), frozenset({0, 6}), agree),
        Command(("audit", inst, "--mechanism", "ttc"), frozenset({0, 6}), agree),
        Command(("check-rule", inst, "--district", "d1", "--properties", *RULE_PROPERTIES),
                frozenset({0, 4}), ("property,verdict,witness",)),
        # is_completion_of without a base rule: the expected answer is a
        # validation error (exit 2), never a traceback
        Command(("check-rule", inst, "--district", "d1", "--properties", "is_completion_of"),
                frozenset({2})),
        Command(("policy-check", inst), frozenset({0}), ("exchange_property,holds",)),
        Command(("bounds", inst), frozenset({0, 5})),
        Command(("nonexistence", variant, "--district", "d1"), frozenset({0})),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        # choose for every rule kind, the SPDA step loop, is_stable and trace
        # rendering at a size where per-call rebuilds show; never touches ttc
        Workload(
            "spda_market",
            pool=48,
            trace_sessions=6,
            make=_spda_make,
            session=_spda_session,
        ),
        # TTC pointing and its permissibility tests; never touches rules or
        # is_stable
        Workload(
            "ttc_market",
            pool=64,
            trace_sessions=6,
            make=_ttc_make,
            session=_ttc_session,
        ),
        # the mechanisms thousands of times on tiny problems (exhaustive audits),
        # the rule property checkers, policy checks, bounds and the
        # nonexistence CSP; per-problem set-up cost shows here
        Workload(
            "desk_oracle",
            pool=128,
            trace_sessions=12,
            make=_desk_make,
            session=_desk_session,
        ),
    )
}


def check_output(cmd: Command, out: str):
    """None when the command's output is as the paper guarantees, else why
    not.  Exit codes are checked by the caller."""
    lines = set(out.splitlines())
    missing = [line for line in cmd.must_print if line not in lines]
    if missing:
        return f"missing {missing}"
    if cmd.trace:
        return _check_trace(cmd.trace, out)
    return None


def _check_trace(path, out):
    """The trace's outcome is the printed matching."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    printed = []
    for line in out.splitlines()[1:]:
        if line == "metric,value":
            break
        student, school, _ = line.split(",")
        printed.append([student, school])
    if sorted(doc["outcome"]) != sorted(printed):
        return "trace outcome differs from the printed matching"
    return None
