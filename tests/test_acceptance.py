"""Acceptance suite: one test per headline criterion.

Each test prints a single PASS/FAIL line (visible with -s or on failure)
and asserts the criterion outcome.  Expected values are frozen in
posetprod.acceptance next to their counting oracles.
"""

import pytest

from posetprod import acceptance


def _run(fn):
    res = fn()
    print(res.line())
    return res


def test_criterion_01_worked_example():
    res = _run(acceptance.criterion_1)
    assert res.details["delta0_rank"] == 3
    assert res.details["higher_limits"] == [(1,), (1,)]
    assert res.passed, res.details


def test_criterion_02_vanishing_suite():
    res = _run(acceptance.criterion_2)
    assert res.details["checked"] >= 200
    assert res.passed, res.details


def test_criterion_03_necessity_control():
    res = _run(acceptance.criterion_3)
    assert res.passed, res.details


def test_criterion_04_two_sided_presentation():
    res = _run(acceptance.criterion_4)
    # Known gap: the bound-relation family is only sound, not complete; see
    # the disagreement records for the poset shapes that expose it.
    assert res.details["fix-b"]["quotient"] == [1, 2, 4, 6, 8]
    assert res.details["fix-e"]["quotient"] == [1, 2, 2, 2, 2]
    assert all(res.details[n]["agree"] for n in ("fix-b", "fix-c", "fix-d", "fix-e"))
    assert res.passed, (
        f"{res.details['random_disagreements']} of {res.details['random_checked']} "
        f"random polyhedral posets disagree; first: {res.details['disagreements'][0]}"
    )


def test_criterion_05_square_counts():
    res = _run(acceptance.criterion_5)
    assert res.passed, res.details


def test_criterion_06_ring_consistency():
    res = _run(acceptance.criterion_6)
    assert res.passed, res.details


def test_criterion_07_space_side():
    res = _run(acceptance.criterion_7)
    assert res.passed, res.details


def test_criterion_08_colim_vs_hocolim():
    res = _run(acceptance.criterion_8)
    assert res.passed, res.details


def test_criterion_09_three_sphere():
    res = _run(acceptance.criterion_9)
    assert res.passed, res.details


def test_criterion_10_invariance():
    res = _run(acceptance.criterion_10)
    assert res.passed, res.details.get("failing", res.details)


def test_main_exits_1_when_a_criterion_fails(capsys):
    # criterion 4 fails by design, so its run must say so in the exit code
    assert acceptance.main(["4"]) == 1
    assert capsys.readouterr().out.startswith("criterion  4 [FAIL]")


@pytest.mark.parametrize("argv", [["11"], ["0", "-3"], ["4", "0"]])
def test_main_refuses_a_criterion_that_does_not_exist(capsys, argv):
    # a mistyped number used to run nothing, print nothing and exit 0
    with pytest.raises(SystemExit) as exc:
        acceptance.main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "no criterion" in captured.err
