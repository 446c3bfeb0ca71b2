"""Acceptance gate: recompute every packaged reference value.

Each criterion prints a single PASS/FAIL line with its recomputed detail,
then asserts.  The registry is shared with the `pebbling verify` verb; this
suite always runs all of it, slow checks included.
"""

from dataclasses import replace

import pytest

from pebbling import bounds, verify
from pebbling.lp import solve_max


@pytest.mark.parametrize("check", verify.CHECKS, ids=[c.name for c in verify.CHECKS])
def test_criterion(check, capsys):
    result = verify.run_check(check)
    mark = "PASS" if result.ok else "FAIL"
    line = f"{mark}  {result.name:<18} {result.elapsed:7.2f}s  {result.detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert result.ok, line


def test_registry_is_complete():
    names = [c.name for c in verify.CHECKS]
    assert len(names) == len(set(names))
    assert len(names) == 13


def test_simplex_oracle_certifies_the_petersen_optimum(monkeypatch):
    # the right value 9 with a tampered dual must not pass
    def tampered(lp, on_pivot=None):
        solution = solve_max(lp, on_pivot)
        if lp.num_vars != 9:
            return solution
        return replace(solution, dual=(solution.dual[0] + 1, *solution.dual[1:]))

    monkeypatch.setattr(bounds, "solve_max", tampered)
    ok, detail = verify._check_simplex_oracle()
    assert not ok
    assert detail.startswith("petersen relaxation: dual objective is not the value 9")
