"""The seed-1 answer digests of the benchmark's workloads.

Every solver change is checked against these: each digest hashes the
centers and the cost bits of every answer in a workload's seed-1 pool, as
the benchmark run prints it.  A change that moves an answer on purpose
updates its digest here and says why.
"""
import os
import sys

import pytest

from fairrange.pipeline import solve_fair_range

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from workloads import POOL, WORKLOADS, answer_digest, answer_hash, make_case  # noqa: E402

DIGESTS = {"small-mix": "d8a5b5869208899e", "assign-lp": "54ba126310084919",
           "many-clients": "1a77db9e7cce1e1c"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_one_answer_digest(workload):
    cases = (make_case(workload, 1, i) for i in range(POOL[workload]))
    answers = [answer_hash(solve_fair_range(case.inst, case.rc)) for case in cases]
    assert answer_digest(answers) == DIGESTS[workload]
