"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).

Two sub-claims are strict-xfail because they are unattainable as stated:
criterion 5's continuity tolerance is below the true mathematical deviation
of the family at lambda = 1 +/- 1e-8, and criterion 9's lambda = 0 identity
contradicts criterion 2 (the absolute-change endpoint).  Each xfail test
carries the analysis in its reason string; the attainable content of both
criteria is asserted by the accompanying passing tests.
"""
import io
import json
import math
import time

import numpy as np
import pytest

from changekit import (
    CalibrationInput,
    EqualPastValuesError,
    PositivePair,
    SignMismatchError,
    StagnantPairError,
    abs_change,
    box_cox,
    calibrate_lambda,
    doubling_example,
    eval_F,
    eval_f,
    log_ratio,
    mrs_cobb_douglas,
    rel_change,
    remainder_bound,
    symmetric_scaling_residual,
    taylor_F,
)
from changekit.axioms import SampleConfig
from changekit.cli import parse_csv, rank_dataset, run_verify
from changekit.elasticity import (
    classical_elasticity,
    elasticity_quotient,
    generalized_elasticity,
    marginal,
    power_function,
)

SEED = 987654321
LAMBDA_MATRIX = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)

EXAMPLE_CSV = """label,past,present
I,10,20
II,500,570
III,140,210
IV,35,70
V,80,135
"""


def announce(n, text):
    print(f"\n[criterion {n:2d}] PASS  {text}")


def random_pairs(rng, n, lo=1e-3, hi=1e3):
    xs = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    ys = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    return xs, ys


def test_criterion_1_example_reproduction():
    start = time.perf_counter()
    ds = parse_csv(io.StringIO(EXAMPLE_CSV))
    reports = {label: (value, rank) for label, _, _, value, rank in rank_dataset(ds, 0.5, "f")}
    elapsed = time.perf_counter() - start

    expected = {"I": 3.16, "II": 3.13, "III": 5.92, "IV": 5.92, "V": 6.15}
    for label, value in expected.items():
        assert abs(reports[label][0] - value) <= 0.005
        assert round(reports[label][0], 2) == value
    assert reports["V"][1] == 1
    assert reports["III"][1] == reports["IV"][1] == 2
    assert elapsed < 1.0
    announce(1, f"five-channel example reproduced in {elapsed * 1e3:.1f} ms")


def test_criterion_2_endpoint_identities_bitwise():
    rng = np.random.default_rng(SEED)
    xs, ys = random_pairs(rng, 10_000)
    for x, y in zip(xs, ys):
        p = PositivePair(x, y)
        assert eval_f(0.0, p) == abs_change(p) == p.y - p.x
        assert eval_f(1.0, p) == rel_change(p) == (p.y - p.x) / p.x
        assert eval_F(0.0, p) == abs_change(p) == p.y - p.x
        assert eval_F(1.0, p) == log_ratio(p)
    announce(2, "f/F endpoints bitwise equal to abs, rel and log-ratio on 10^4 pairs")


def test_criterion_3_axiom_suite():
    start = time.perf_counter()
    for lam in LAMBDA_MATRIX:
        cfg = SampleConfig(seed=SEED, count=10_000, lambda_range=(lam, lam))
        for target, must_pass in (
            ("f", ("affine_linearity", "naturality", "relative_scaling")),
            ("F", ("naturality", "relative_scaling", "antisymmetry", "additivity", "normed")),
        ):
            results, ok = run_verify(target, lam, cfg)
            assert ok, f"verify --target {target} --lambda {lam} failed: {results}"
            by_name = {r["property"]: r for r in results}
            for name in must_pass:
                assert by_name[name]["pass"], (target, lam, name, by_name[name])
                if name != "normed":  # normed reports a ratio against its bound
                    assert by_name[name]["max_residual"] <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(3, f"axiom suite green for lambda in {LAMBDA_MATRIX} in {elapsed:.2f} s")


def test_criterion_4_criticism_reproduction():
    # rel fails antisymmetry: witness (1, 2)
    rel = lambda x, y: (y - x) / x
    assert abs(rel(1, 2) + rel(2, 1)) >= 0.5
    # rel fails additivity: witness (1, 2, 4) with residual exactly 1
    assert abs(rel(1, 2) + rel(2, 4) - rel(1, 4)) == 1.0
    # abs fails Vartia scale invariance: witness (1, 2) with C = 2
    assert (4 - 2) != (2 - 1)

    cfg = SampleConfig(seed=SEED, count=10_000, lambda_range=(1.0, 1.0))
    rel_results, rel_ok = run_verify("rel", 1.0, cfg)
    assert rel_ok
    by_name = {r["property"]: r for r in rel_results}
    assert not by_name["antisymmetry"]["pass"]
    assert not by_name["additivity"]["pass"]
    abs_results, abs_ok = run_verify("abs", 0.0, cfg)
    assert abs_ok
    by_name = {r["property"]: r for r in abs_results}
    assert not by_name["vartia_invariance"]["pass"]
    announce(4, "rel fails antisymmetry/additivity, abs fails scale invariance, with witnesses")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: the exact value of F at lambda = 1 +/- 1e-8 "
        "differs from ln(2.5) by |1-lambda| * (ln(5)^2 - ln(2)^2)/2 ~= 1.0549e-8 "
        "> 1e-8; this is the mathematical deviation of the family itself, not "
        "evaluation error, so no correct evaluator can meet the 1e-8 tolerance"
    ),
)
def test_criterion_5_lambda_to_one_continuity_as_stated():
    p = PositivePair(2, 5)
    for lam in (1 - 1e-8, 1 + 1e-8):
        assert abs(eval_F(lam, p) - math.log(2.5)) <= 1e-8


def test_criterion_5_stable_evaluation_near_lambda_one():
    p = PositivePair(2, 5)
    target = math.log(2.5)
    # attainable content: the expm1 path tracks the exact family value, whose
    # first-order deviation in (1 - lambda) has slope (ln(5)^2 - ln(2)^2)/2
    slope = (math.log(5) ** 2 - math.log(2) ** 2) / 2
    for eps in (1e-8, 1e-10, 1e-12):
        for lam in (1 - eps, 1 + eps):
            v = eval_F(lam, p)
            assert math.isfinite(v)
            assert abs(v - target) <= slope * eps * 1.01 + 1e-14
    for eps in (1e-15, 1e-16, 0.0):
        for lam in (1 - eps, 1 + eps):
            v = eval_F(lam, p)
            assert math.isfinite(v)
            assert abs(v - target) <= 1e-12
    announce(5, "F stays finite and within first-order theory of ln(y/x) through lambda = 1")


def test_criterion_6_taylor_bound():
    rng = np.random.default_rng(SEED)
    lams = rng.uniform(0.0, 2.0, 10_000)
    xs, ys = random_pairs(rng, 10_000)
    for lam, x, y in zip(lams, xs, ys):
        p = PositivePair(x, y)
        assert abs(eval_F(lam, p) - eval_f(lam, p)) <= remainder_bound(lam, p)

    # order-8 truncation within 1e-8 relative for |y - x| / x <= 0.1
    lams = rng.uniform(0.0, 2.0, 2_000)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2_000))
    ratios = rng.uniform(-0.1, 0.1, 2_000)
    for lam, x, r in zip(lams, xs, ratios):
        p = PositivePair(x, x * (1 + r))
        target = eval_F(lam, p)
        assert abs(taylor_F(lam, p, 8) - target) <= 1e-8 * max(1.0, abs(target))
    announce(6, "|F - f| bound holds on 10^4 samples; order-8 series within 1e-8 relative")


def test_criterion_7_calibration_round_trip():
    rng = np.random.default_rng(SEED)
    for _ in range(1_000):
        target = rng.uniform(-1.0, 2.0)
        x = float(np.exp(rng.uniform(math.log(0.1), math.log(100.0))))
        ratio = float(rng.uniform(0.6, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 3.0))
        ref = PositivePair(x, x * ratio)
        x2 = 2 * x
        y2 = x2 + eval_f(target, ref) * x2**target
        lam = calibrate_lambda(CalibrationInput(ref, PositivePair(x2, y2)))
        assert abs(lam - target) <= 1e-9

    with pytest.raises(StagnantPairError):
        CalibrationInput(PositivePair(3, 3), PositivePair(1, 2))
    with pytest.raises(EqualPastValuesError):
        CalibrationInput(PositivePair(1, 2), PositivePair(1, 3))
    with pytest.raises(SignMismatchError):
        CalibrationInput(PositivePair(1, 2), PositivePair(4, 3))
    announce(7, "lambda recovered to 1e-9 over 10^3 cases; degenerate inputs raise named errors")


def test_criterion_8_symmetric_choice_identities():
    for lam in (-1.0, -0.25, 0.0, 0.3, 0.5, 0.75, 1.0, 2.0):
        a, b = doubling_example(lam)
        assert abs(a - 2 ** (1 - lam)) <= 1e-12 * 2 ** (1 - lam)
        assert abs(b - 2**lam) <= 1e-12 * 2**lam

    # the components cross exactly once, at lambda = 1/2 (sign-change bracketing)
    gap = lambda lam: doubling_example(lam)[0] - doubling_example(lam)[1]
    grid = np.linspace(-3, 4, 701)
    signs = [math.copysign(1, gap(l)) for l in grid if gap(l) != 0]
    assert sum(1 for s, t in zip(signs, signs[1:]) if s != t) == 1
    assert gap(0.5 - 1e-9) > 0 > gap(0.5 + 1e-9)
    assert abs(gap(0.5)) <= 1e-15

    rng = np.random.default_rng(SEED)
    for _ in range(1_000):
        x = float(np.exp(rng.uniform(math.log(0.01), math.log(100.0))))
        p = PositivePair(x, x * float(rng.uniform(1.05, 5.0)))
        c = float(np.exp(rng.uniform(math.log(0.25), math.log(4.0))))
        res = symmetric_scaling_residual(0.5, p, c)
        assert abs(res) <= 1e-12 * max(1.0, abs(eval_f(0.5, p.scaled(c))))

    for x in (0.123, 7.0, 4096.0):
        assert mrs_cobb_douglas(0.5, PositivePair(x, 2 * x)) == x
    announce(8, "doubling identities, symmetric scaling residual and MRS fixed point verified")


def test_criterion_9_box_cox_values():
    assert abs(box_cox(0.5, 4.0) - 2.0) <= 1e-12 * 2.0
    assert abs(box_cox(1.0, math.e) - 1.0) <= 1e-12
    grid = np.linspace(0.05, 5.0, 100)
    for y in grid:
        y = float(y)
        ref = 1.25 * (y**0.8 - 1)
        assert abs(box_cox(0.2, y) - ref) <= 1e-12 * max(1.0, abs(ref))
        # the lambda = 0 curve consistent with the abs-change endpoint is y - 1
        assert box_cox(0.0, y) == y - 1
    announce(9, "Box-Cox closed forms hold to 1e-12 on a 100-point grid (F_0(1,y) = y - 1)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated: F_0(1, y) = y contradicts the bitwise endpoint "
        "identity F_0 = abs (criterion 2), which forces F_0(1, y) = y - 1; the "
        "family theorem gives the same value, and all curves pass through (1, 0), "
        "not (1, 1)"
    ),
)
def test_criterion_9_lambda_zero_identity_as_stated():
    grid = np.linspace(0.05, 5.0, 100)
    for y in grid:
        y = float(y)
        assert abs(box_cox(0.0, y) - y) <= 1e-12 * max(1.0, y)


def test_criterion_10_elasticity():
    g = power_function(5, 0.3)
    # "exactly 0.3": no truncation error in the closed-form path; only
    # floating-point rounding of the quotient remains (within 2 ulp)
    for x in np.linspace(0.5, 10.0, 100):
        assert abs(classical_elasticity(g, float(x)) - 0.3) <= 2 * math.ulp(0.3)

    target = generalized_elasticity(0.5, g, 2.0)
    errs = [abs(elasticity_quotient(0.5, g, 2.0, h) - target) for h in (1e-1, 1e-2, 1e-3, 1e-4)]
    for a, b in zip(errs, errs[1:]):
        assert 8.0 <= a / b <= 12.0

    for x in (0.5, 2.0, 7.0):
        assert generalized_elasticity(0.0, g, x) == marginal(g, x) == g.derivative(x)
        assert generalized_elasticity(1.0, g, x) == classical_elasticity(g, x)
    announce(10, "constant elasticity 0.3 to machine precision; quotient converges at rate h")
