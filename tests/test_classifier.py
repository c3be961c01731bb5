"""Six-case matching and the center/focus verdict."""

import itertools

import pytest

import helpers
from lotkacenter import (
    CanonicalParams,
    CenterCase,
    FocalBranch,
    LotkaError,
    PreconditionViolated,
    Verdict,
    classify,
    closed_form_focal,
    jacobian,
    lyapunov_numeric,
    match_table_cases,
    taylor_expand,
)
from lotkacenter.classifier import WITNESS_FACTORS
from lotkacenter.cli import main

ALL_CASES = (
    CenterCase.I,
    CenterCase.II,
    CenterCase.III,
    CenterCase.IV,
    CenterCase.R1,
    CenterCase.R2,
)


def test_match_single_rows():
    assert match_table_cases(CanonicalParams(0.0, 1.0, 1.0, 0.0, 7.0)) == {CenterCase.I}
    assert match_table_cases(CanonicalParams(1.0, -1.0, -3.0, 2.0, 0.5)) == {CenterCase.IV}


def test_match_overlapping_rows():
    cases = match_table_cases(CanonicalParams(-0.5, -1.5, -1.5, -0.5, 1.0))
    assert cases == {CenterCase.II, CenterCase.R1}


def test_match_reversible_intersection():
    assert match_table_cases(CanonicalParams(0.0, -2.0, -2.0, 0.0, 1.0)) == {
        CenterCase.I,
        CenterCase.R1,
        CenterCase.R2,
    }
    assert match_table_cases(CanonicalParams(-1.0, -3.0, -3.0, -1.0, 1.0)) == {
        CenterCase.R1,
        CenterCase.R2,
    }


def test_match_empty_for_weak_focus():
    assert match_table_cases(CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0)) == frozenset()


def test_match_rows_by_construction():
    for row_index, case in enumerate(ALL_CASES):
        for i, c in enumerate(helpers.center_row_draws(100 + row_index, case, 25)):
            assert case in match_table_cases(c), f"{case} draw {i}"
            assert jacobian(c).determinant > 0.0, f"{case} draw {i}"


def test_classify_center_examples():
    r = classify(CanonicalParams(0.0, 1.0, 1.0, 0.0, 3.0))
    assert r.verdict is Verdict.CENTER
    assert r.cases == {CenterCase.I}
    assert r.witness == "b3 = 0"


def test_classify_stable_focus_second_order():
    r = classify(CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0))
    assert r.verdict is Verdict.FOCUS_STABLE
    assert r.cases == frozenset()
    assert r.focal.L2 < 0.0
    r = classify(CanonicalParams(1.0, -2.0, -3.0, 1.0, 1.0))
    assert r.verdict is Verdict.FOCUS_STABLE
    assert r.focal.branch is FocalBranch.CASE_C2


def test_classify_unstable_focus_first_order():
    r = classify(CanonicalParams(2.0, -1.0, -3.0, 1.0, 2.0))
    assert r.verdict is Verdict.FOCUS_UNSTABLE
    assert r.witness == "L1 != 0"
    assert r.focal.L1 > 0.0


def test_classify_degenerate_determinant():
    r = classify(CanonicalParams(1.0, 1.0, 1.0, 1.0, 1.0))
    assert r.verdict is Verdict.DEGENERATE_DET_ZERO
    assert r.cases == frozenset()


def test_classify_not_elliptic():
    assert classify(CanonicalParams(2.0, 1.0, 1.0, 1.0, 1.0)).verdict is Verdict.NOT_ELLIPTIC
    assert classify(CanonicalParams(1.0, 2.0, 1.0, 1.0, 2.0)).verdict is Verdict.NOT_ELLIPTIC


@pytest.mark.parametrize(
    "c",
    [
        CanonicalParams(2e-7, 1e-6, 1e-6, 2e-7, 1.0),
        CanonicalParams(1.0 + 1e-10, 2.0, 1.0, 1.0, 1.0),
        CanonicalParams(1e-12, 0.0, 1.0, -1e-12, 1.0),
        CanonicalParams(0.0, 1.0, 1.0, 0.0, 3.0),
        CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0),
        CanonicalParams(2.0, -1.0, -3.0, 1.0, 2.0),
    ],
    ids=["det-in-tolerance", "trace-1e-10", "b1-zero", "linear", "weak-focus", "first-order"],
)
def test_focal_routes_share_the_ellipticity_decision(c):
    # both focal routes refuse exactly what classify calls degenerate or not elliptic
    refused = classify(c).verdict in (Verdict.DEGENERATE_DET_ZERO, Verdict.NOT_ELLIPTIC)
    routes = (closed_form_focal, lambda c: lyapunov_numeric(taylor_expand(c, 5), 1))
    for route in routes:
        if refused:
            with pytest.raises(PreconditionViolated):
                route(c)
        else:
            route(c)


#: zeros, subnormals, tiny, unit and near-overflow magnitudes
EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-12, 1.0, -1.0, 2.0, 1e300, -1e300, 1.7e308)


def test_classify_is_total_on_extreme_magnitudes():
    escaped = []
    for a1, b1, a3, b3 in itertools.product(EXTREMES, repeat=4):
        for K in (5e-324, 1e-300, 1.0, 1e300, 1.7e308):
            c = CanonicalParams(a1, b1, a3, b3, K)
            try:
                classify(c)
            except (LotkaError, ValueError):
                pass
            except Exception as exc:
                escaped.append((c, type(exc).__name__))
    assert not escaped, f"{len(escaped)} escapes, first {escaped[:3]}"


def test_row_boundary_meets_degeneracy():
    # pushing a row-II inequality to equality kills the determinant
    r = classify(CanonicalParams(0.6, -0.6, -0.4, 0.4, 1.5))
    assert r.verdict is Verdict.DEGENERATE_DET_ZERO


def test_classify_rows_give_center():
    for row_index, case in enumerate(ALL_CASES):
        for i, c in enumerate(helpers.center_row_draws(200 + row_index, case, 25)):
            r = classify(c)
            assert r.verdict is Verdict.CENTER, f"{case} draw {i}: {r.verdict}"
            assert case in r.cases, f"{case} draw {i}"


def test_center_witness_names_vanishing_factor():
    for row_index, case in enumerate(ALL_CASES):
        for i, c in enumerate(helpers.center_row_draws(300 + row_index, case, 15)):
            r = classify(c)
            branch = r.focal.branch
            if branch is FocalBranch.CASE_A_B3_ZERO:
                assert r.witness == "b3 = 0"
                assert WITNESS_FACTORS["b3 = 0"](c) == 0.0
            elif branch is FocalBranch.CASE_C1:
                assert r.witness.startswith("b3 = 1, a3 = -1")
                assert abs(WITNESS_FACTORS["a3 = -1"](c)) <= 1e-10
            elif branch is FocalBranch.CASE_C2:
                tokens = r.witness.removeprefix("b3 = 1, K = 1; ").split("; ")
                assert tokens, f"{case} draw {i}"
                scale = 1.0 + abs(c.a3) + abs(c.b1)
                for t in tokens:
                    assert abs(WITNESS_FACTORS[t](c)) <= 1e-9 * scale, f"{case} {t}"
            else:
                tokens = r.witness.split("; ")
                assert tokens, f"{case} draw {i}"
                scale = 1.0 + abs(c.a3) + abs(c.b3) * c.K + c.K
                for t in tokens:
                    assert abs(WITNESS_FACTORS[t](c)) <= 1e-9 * scale, f"{case} {t}"


def test_witness_token_map_is_total():
    c = CanonicalParams(1.0, 2.0, 1.0, 1.0, 1.0)
    for token in WITNESS_FACTORS:
        assert isinstance(WITNESS_FACTORS[token](c), float)
    with pytest.raises(KeyError):
        WITNESS_FACTORS["no such factor"](c)


def test_verdict_matches_case_membership():
    # center verdict and nonempty case set are the same event
    for i, c in enumerate(helpers.elliptic_draws(53, 400)):
        r = classify(c)
        if r.verdict is Verdict.CENTER:
            assert r.cases, f"draw {i}"
        else:
            assert not r.cases, f"draw {i}"


def test_classification_record_text(capsys):
    # the CLI renders the record
    assert main(["classify", "--a1", "0", "--b1", "1", "--a3", "1", "--b3", "0", "--K", "3"]) == 0
    text = capsys.readouterr().out
    assert "verdict=Center" in text
    assert "cases=I" in text
    assert "witness=b3 = 0" in text
    assert main(["classify", "--a1", "2", "--b1", "-1", "--a3", "-3", "--b3", "1", "--K", "2"]) == 1
    text = capsys.readouterr().out
    assert "verdict=FocusUnstable" in text
