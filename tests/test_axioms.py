import json
import math
from decimal import Decimal, localcontext
from functools import partial

import pytest

from changekit.axioms import (
    CheckReport,
    Indicator,
    SampleConfig,
    VIOLATION_FLOOR,
    F_indicator,
    check_additivity,
    check_affine_linearity,
    check_antisymmetry,
    check_naturality,
    check_normed,
    check_relative_scaling,
    check_vartia_invariance,
    f_indicator,
)
from changekit.errors import ValidationError

LAMBDA_MATRIX = (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0)

# The classical indicators are the families' endpoints.
abs_indicator = partial(f_indicator, 0.0)
rel_indicator = partial(f_indicator, 1.0)
log_ratio_indicator = partial(F_indicator, 1.0)


def cfg(seed=1234, count=2000, **kw):
    return SampleConfig(seed=seed, count=count, **kw)


class TestReportsAndConfig:
    def test_report_json_schema(self):
        report = check_antisymmetry(abs_indicator(), cfg())
        data = json.loads(report.to_json())
        assert list(data) == ["property", "samples", "max_residual", "worst_case", "pass"]
        assert data["pass"] is True
        assert isinstance(data["max_residual"], float)

    def test_pass_flag_tracks_tolerance(self):
        r = CheckReport("demo", 10, 1e-10, {}, 1e-9)
        assert r.passed
        r2 = CheckReport("demo", 10, 1e-8, {}, 1e-9)
        assert not r2.passed

    def test_deterministic_given_seed(self):
        a = check_relative_scaling(f_indicator(0.7), cfg(seed=99))
        b = check_relative_scaling(f_indicator(0.7), cfg(seed=99))
        assert a.to_json() == b.to_json()
        c = check_relative_scaling(f_indicator(0.7), cfg(seed=100))
        assert c.worst_case != a.worst_case

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SampleConfig(count=0)
        with pytest.raises(ValidationError):
            SampleConfig(value_range=(-1.0, 2.0))
        with pytest.raises(ValidationError):
            SampleConfig(lambda_range=(2.0, 1.0))
        with pytest.raises(ValidationError):
            SampleConfig(c_range=(0.0, 1.0))

    def test_scalar_fallback_matches_batch(self):
        lam = 0.6
        with_batch = f_indicator(lam)
        scalar_only = Indicator("f-scalar", with_batch.fn)
        a = check_antisymmetry(scalar_only, cfg(count=200))
        b = check_antisymmetry(with_batch, cfg(count=200))
        assert a.max_residual == b.max_residual


class TestAffineLinearity:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_f_family_passes(self, lam):
        assert check_affine_linearity(f_indicator(lam), cfg()).passed

    def test_big_F_fails_by_concavity(self):
        report = check_affine_linearity(F_indicator(0.5), cfg())
        assert not report.passed
        assert report.max_residual > VIOLATION_FLOOR
        # explicit witness: F(1, 2.5) = 2*(sqrt(2.5) - 1) vs the chord value 1
        F = F_indicator(0.5)
        assert abs(F(1.0, 2.5) - 0.5 * (F(1.0, 1.0) + F(1.0, 4.0))) > 0.1

    def test_log_ratio_fails(self):
        report = check_affine_linearity(log_ratio_indicator(), cfg())
        assert not report.passed and report.max_residual > VIOLATION_FLOOR


class TestNaturality:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_families_pass(self, lam):
        assert check_naturality(f_indicator(lam), cfg()).passed
        assert check_naturality(F_indicator(lam), cfg()).passed

    def test_squared_difference_fails(self):
        squared = Indicator("sqdiff", lambda x, y: (y - x) ** 2)
        report = check_naturality(squared, cfg(count=500))
        assert not report.passed
        assert squared(2.0, 1.0) == 1.0  # positive despite a decrease


class TestRelativeScaling:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_families_pass(self, lam):
        assert check_relative_scaling(f_indicator(lam), cfg()).passed
        assert check_relative_scaling(F_indicator(lam), cfg()).passed

    def test_shifted_abs_fails(self):
        shifted = Indicator("abs+1", lambda x, y: (y - x) + 1.0)
        report = check_relative_scaling(shifted, cfg(count=500))
        assert not report.passed and report.max_residual > VIOLATION_FLOOR
        # witness from first principles: x=1,y=1,x2=1,y2=2,C=2
        assert shifted(1, 1) * shifted(2, 4) == 3.0
        assert shifted(1, 2) * shifted(2, 2) == 2.0


class TestVartiaInvariance:
    def test_rel_and_log_pass(self):
        assert check_vartia_invariance(rel_indicator(), cfg()).passed
        assert check_vartia_invariance(log_ratio_indicator(), cfg()).passed
        assert check_vartia_invariance(f_indicator(1.0), cfg()).passed

    def test_abs_fails(self):
        report = check_vartia_invariance(abs_indicator(), cfg(count=500))
        assert not report.passed and report.max_residual > VIOLATION_FLOOR
        ind = abs_indicator()
        assert ind(2.0, 4.0) != ind(1.0, 2.0)  # witness (1,2) with C=2


class TestAntisymmetry:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_big_F_passes(self, lam):
        assert check_antisymmetry(F_indicator(lam), cfg()).passed

    def test_abs_passes(self):
        assert check_antisymmetry(abs_indicator(), cfg()).passed

    def test_rel_fails(self):
        report = check_antisymmetry(rel_indicator(), cfg(count=500))
        assert not report.passed and report.max_residual > VIOLATION_FLOOR
        ind = rel_indicator()
        assert ind(1.0, 2.0) + ind(2.0, 1.0) == 0.5  # witness


class TestAdditivity:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_big_F_passes(self, lam):
        assert check_additivity(F_indicator(lam), cfg()).passed

    def test_abs_passes(self):
        assert check_additivity(abs_indicator(), cfg()).passed

    def test_rel_fails(self):
        report = check_additivity(rel_indicator(), cfg(count=500))
        assert not report.passed and report.max_residual > VIOLATION_FLOOR
        ind = rel_indicator()
        assert ind(1.0, 2.0) + ind(2.0, 4.0) - ind(1.0, 4.0) == -1.0  # witness (1,2,4)


class TestNormed:
    @pytest.mark.parametrize("lam", LAMBDA_MATRIX)
    def test_matched_families_pass(self, lam):
        c = cfg(count=300, lambda_range=(lam, lam))
        assert check_normed(F_indicator, f_indicator, c).passed

    def test_random_lambda_passes(self):
        assert check_normed(F_indicator, f_indicator, cfg(count=300)).passed

    def test_mismatched_families_fail(self):
        shifted = lambda lam: f_indicator(lam + 0.5)
        report = check_normed(F_indicator, shifted, cfg(count=300, lambda_range=(0.5, 0.5)))
        assert not report.passed

    def test_exact_family_passes_below_minus_one(self):
        # With 1 + lam < 0 the remainder constant peaks at x + h, not at x;
        # F in 60-digit decimal leaves only the remainder itself to measure.
        def decimal_F(lam):
            def F(x, y):
                with localcontext() as ctx:
                    ctx.prec = 60
                    u = 1 - Decimal(lam)
                    return float((Decimal(y) ** u - Decimal(x) ** u) / u)
            return Indicator(f"F_decimal[{lam:.4g}]", F)

        report = check_normed(decimal_F, f_indicator, cfg(count=200, lambda_range=(-20.0, -20.0)))
        assert report.passed, report.to_dict()

    def test_lambda_zero_exact(self):
        report = check_normed(F_indicator, f_indicator, cfg(count=100, lambda_range=(0.0, 0.0)))
        assert report.max_residual == 0.0
