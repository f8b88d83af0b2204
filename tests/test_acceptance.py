"""Every acceptance criterion at its stated tolerance, one line each."""

import json

import pytest

from skewdyn import acceptance
from skewdyn.cli import main
from skewdyn.errors import PreconditionViolated

NAMES = {
    1: "cocycle_additivity",
    2: "binding_comparability",
    3: "tame_floor_fit",
    4: "return_floor",
    5: "slow_approach",
    6: "exclusion_decay",
    7: "base_derivative",
    8: "disk_expansion",
    9: "series_closed_forms",
    10: "determinism",
}


@pytest.mark.parametrize(
    "number", sorted(NAMES),
    ids=[f"{n:02d}_{NAMES[n]}" for n in sorted(NAMES)])
def test_criterion(number):
    result = getattr(acceptance, f"criterion_{number}")()
    status = "PASS" if result.passed else "FAIL"
    print(f"criterion {result.number:2d} {status} {result.name} "
          f"({result.elapsed:.1f}s / budget {result.budget:g}s)")
    assert result.number == number
    assert result.name == NAMES[number]
    assert result.passed, result.details
    assert result.details["within_budget"]


def test_criterion_1_fails_on_a_drifting_cocycle(monkeypatch):
    # step 5's factor drifts by 1e-6 in log scale in every orbit the
    # criterion iterates, so each sum across step 5 misses by 1e-6
    iterate = acceptance.iterate

    def drifting(map, x0, n):
        trace = iterate(map, x0, n)
        trace.log_vder[6:] += 1e-6
        return trace

    monkeypatch.setattr(acceptance, "iterate", drifting)
    result = acceptance.criterion_1()
    assert not result.passed
    assert result.details["worst_split_deviation"] > result.details["tolerance"]
    assert result.details["worst_restart_deviation"] > result.details["tolerance"]


class TestRunner:
    def test_subset_in_numeric_order(self):
        results = acceptance.run_all([9, 2])
        assert [r.number for r in results] == [2, 9]
        assert all(r.passed for r in results)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(PreconditionViolated):
            acceptance.run_all([11])

    def test_cli_selftest_subset(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "selftest",
                                   "params": {"criteria": [9]}}))
        out_dir = tmp_path / "out"
        code = main(["selftest", "--config", str(cfg), "--out", str(out_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "criterion  9 PASS" in out
        report = json.loads((out_dir / "selftest.json").read_text())
        results = report["results"]
        assert results[0]["number"] == 9 and results[0]["passed"] is True
