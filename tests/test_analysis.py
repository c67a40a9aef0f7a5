"""Closed-form constants: quadrature cross-checks, monotonicity of the
penalty curves, the thresholds at their normal quantiles, and the normal
approximation bridge."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate, stats

from ocrlab.analysis import (derived_constants, expected_max_normal, normal_cdf,
                             normal_pdf, penalty_pi1, penalty_pi2,
                             tree_layer_bound)


class TestNormalHelpers:
    @pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 0.5, 2.5])
    def test_cdf_pdf_against_scipy(self, x):
        assert normal_cdf(x) == pytest.approx(stats.norm.cdf(x), abs=1e-14)
        assert normal_pdf(x) == pytest.approx(stats.norm.pdf(x), abs=1e-14)

    @pytest.mark.parametrize("d", np.linspace(-2.0, 2.0, 9).tolist())
    def test_expected_max_against_quadrature(self, d):
        # split at the kink so each piece is smooth for the quadrature; the
        # tails are truncated where the density is far below the tolerance
        left, err_l = integrate.quad(lambda z: d * stats.norm.pdf(z), -12.0, d)
        right, err_r = integrate.quad(lambda z: z * stats.norm.pdf(z), d, 12.0)
        assert err_l + err_r < 1e-8  # quad's own (conservative) error estimate
        assert expected_max_normal(d) == pytest.approx(left + right, abs=1e-9)

    def test_expected_max_tails(self):
        assert expected_max_normal(10.0) == pytest.approx(10.0, abs=1e-9)
        assert expected_max_normal(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))


class TestPenalties:
    @pytest.mark.parametrize("penalty,phi_level", [(penalty_pi1, 7.0 / 8.0),
                                                   (penalty_pi2, 3.0 / 4.0)])
    def test_unimodal_with_argmin_at_the_quantile(self, penalty, phi_level):
        rows = {r.name: r.value for r in derived_constants()}
        argmin = rows[f"argmin_{penalty.__name__}"]
        assert abs(argmin - stats.norm.ppf(phi_level)) <= 1e-15
        grid = np.arange(0.0, 3.0, 0.01)
        vals = [penalty(x) for x in grid]
        below = grid <= argmin
        assert all(a >= b - 1e-12 for a, b in zip(np.array(vals)[below],
                                                  np.array(vals)[below][1:]))
        above = grid >= argmin
        assert all(b >= a - 1e-12 for a, b in zip(np.array(vals)[above],
                                                  np.array(vals)[above][1:]))

    def test_reference_evaluations(self):
        assert penalty_pi1(1.152) == pytest.approx(0.291, abs=1e-3)
        assert penalty_pi2(0.674) == pytest.approx(0.224, abs=1e-3)
        assert penalty_pi1(0.913) == pytest.approx(0.301, abs=2e-3)
        assert penalty_pi2(0.913) == pytest.approx(0.231, abs=1e-3)


class TestConstantTable:
    def test_rows_and_tolerances(self):
        rows = {r.name: r for r in derived_constants()}
        assert len(rows) == 16
        assert rows["c_prime"].value == pytest.approx(
            math.sqrt(math.e) / (math.sqrt(math.e) - 1.0))
        assert rows["inv_c_prime"].value == pytest.approx(1.0 - math.exp(-0.5))
        assert rows["advantage_pi1"].value == pytest.approx(0.150, abs=1e-3)
        assert rows["advantage_pi2"].value == pytest.approx(0.115, abs=1e-3)
        assert rows["margin_pi1"].value >= 0.002
        assert rows["margin_pi2"].value >= 0.001
        errs = []
        for k in (2, 4, 6, 8):
            row = rows[f"tree_bound_k{k}"]
            assert row.value == pytest.approx(tree_layer_bound(k))
            # the finite-k bound converges to k(1 - 1/sqrt(e)) from above
            assert row.value >= row.reference_value
            errs.append(row.abs_err / k)  # per-element gap to the limit
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] <= 0.025

    def test_tree_bound_values(self):
        assert tree_layer_bound(2) == pytest.approx(2 * (1 - 0.5))
        assert tree_layer_bound(4) == pytest.approx(4 * (1 - 0.75 ** 2))


class TestNormalBridge:
    def test_binomial_standardization_passes_ks(self):
        # the simulation analysis treats (k - X)/sqrt(k/2), X ~ Bin(2k, 1/2),
        # as standard normal; at k = 10^6 this holds to KS at the 1% level
        k = 1_000_000
        rng = np.random.default_rng(2026)
        x = rng.binomial(2 * k, 0.5, size=10_000)
        z = (k - x) / math.sqrt(k / 2)
        stat, pvalue = stats.kstest(z, "norm")
        assert pvalue > 0.01
