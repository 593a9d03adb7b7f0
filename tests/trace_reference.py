"""Reference trace documents: the nested dicts the command line once built
for ``run --trace`` and rendered with ``json.dumps(doc, indent=2,
sort_keys=True)`` and a newline.  The step-by-step writers in ``cli`` must
produce the same bytes.
"""

from __future__ import annotations

import json

from districtmatch.model import sort_matching


def trace_text(doc):
    """The bytes of a trace file holding ``doc``, as text."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _spda_trace_doc(problem, trace):
    pair_of = {}  # contract -> its [student id, school id], built once per trace

    def pairs(X):
        out = []
        for x in sort_matching(X):
            pair = pair_of.get(x)
            if pair is None:
                pair = [problem.student_ids[x.student], problem.school_ids[x.school]]
                pair_of[x] = pair
            out.append(pair)
        return out

    return {
        "mechanism": "spda",
        "steps": [
            {
                "proposals": {
                    problem.district_ids[d]: pairs(p) for d, p in step.proposals
                },
                "tentative": pairs(held),
                "rejected": pairs(step.rejected),
            }
            for step, held in zip(trace.steps, trace.tentative())
        ],
        "outcome": pairs(trace.outcome),
    }


def _ttc_trace_doc(problem, trace):
    def slot(p):
        return [problem.school_ids[p[0]], problem.type_ids[p[1]]]

    return {
        "mechanism": "ttc",
        "steps": [
            {
                "active": [slot(p) for p in step.active],
                "slot_pointer": [
                    [slot(p), problem.student_ids[s]] for p, s in step.slot_pointer
                ],
                "student_pointer": [
                    [problem.student_ids[s], slot(p)] for s, p in step.student_pointer
                ],
                "cycles": [
                    [[problem.student_ids[s], slot(p)] for s, p in cycle]
                    for cycle in step.cycles
                ],
                "removed": [slot(p) for p in step.removed],
            }
            for step in trace.steps
        ],
        "outcome": [
            [problem.student_ids[x.student], problem.school_ids[x.school]]
            for x in sort_matching(trace.outcome)
        ],
    }
