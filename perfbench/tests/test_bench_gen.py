"""The seeded market generator: deterministic and always valid."""

import os
import subprocess
import sys

import pytest

import gen
import workloads
from conftest import BENCH, SRC
from districtmatch.instances import load_instance

DIGEST = """
import hashlib, sys, tempfile
import workloads
h = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    for w in workloads.WORKLOADS.values():
        for i in range(3):
            market = w.make(7, i, tmp)
            for role in sorted(market):
                with open(market[role], "rb") as fh:
                    h.update(fh.read())
print(h.hexdigest())
"""


def test_same_seed_same_bytes_across_hash_seeds():
    digests = []
    for hash_seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-c", DIGEST],
            capture_output=True,
            text=True,
            env={"PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join([BENCH, SRC]),
                 "PATH": os.environ.get("PATH", "/usr/bin:/bin")},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_seeds_and_indices_give_different_markets():
    params = workloads.TTC_PARAMS
    docs = {gen.dumps(gen.generate(params, seed, "ttc_market", i))
            for seed in (1, 2) for i in (0, 1)}
    assert len(docs) == 4


def test_streams_are_independent():
    # changing only the preference stream leaves priorities untouched
    a = gen.streams(1, "x", 0)
    b = gen.streams(1, "x", 0)
    a["preferences"].random()
    assert a["priorities"].random() == b["priorities"].random()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_files_load(name, tmp_path):
    w = workloads.WORKLOADS[name]
    for i in range(8 if name != "spda_market" else 4):
        market = w.make(3, i, str(tmp_path))
        for path in market.values():
            inst = load_instance(path)  # raises ValidationError if invalid
            assert inst.problem.num_students > 0


def test_market_shape(tmp_path):
    market = workloads.WORKLOADS["spda_market"].make(5, 0, str(tmp_path))
    inst = load_instance(market["market"])
    p = inst.problem
    assert (p.num_students, p.num_districts, p.num_schools, p.num_types) == (300, 4, 20, 3)
    assert sorted(r.kind.value for r in inst.rules.values()) == sorted(gen.RULE_KINDS)
    slack = sum(p.capacities) / p.num_students - 1
    assert 0 < slack <= 0.1
