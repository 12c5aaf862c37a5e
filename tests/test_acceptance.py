"""Acceptance suite: every criterion at its pinned tolerance.

Each test delegates to the corresponding check in ``workcap.verify`` (the
same functions behind ``workcap verify``) and prints one PASS/FAIL line.
Criteria with stated runtime budgets assert them too.
"""

import pytest

from workcap import verify

BUDGETS = {
    "fig5_capacity": 1.0,
    "fig5_mea_work_rate": 1.0,
    "golden_mean_realizability": 5.0,
    "fig5_agent_set_exclusivity": 5.0,
    "global_markov_chain": 30.0,
    "cascade_subadditivity": 4.0,
    "cesaro_machinery": 0.5,
    "d_separation_soundness": 3.0,
}


@pytest.mark.parametrize("name,func", verify.ALL_CHECKS, ids=[n for n, _ in verify.ALL_CHECKS])
def test_criterion(name, func):
    result = verify.run_check(name, func, seed=0)
    status = "PASS" if result.passed else "FAIL"
    print(f"{status} {name} [{result.seconds:.2f}s] {result.detail}")
    assert result.passed, f"{name}: {result.detail}"
    if name in BUDGETS:
        assert result.seconds < BUDGETS[name], (
            f"{name} took {result.seconds:.2f}s, budget {BUDGETS[name]}s")
