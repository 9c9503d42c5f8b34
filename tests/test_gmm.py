import math
import re

import numpy as np
import pytest

from numlm import gmm
from numlm.gmm import (BANK_SIZES, GaussianMixtureBank, build_component_bank,
                       em_fit, percentile_init, variance_floor)


class TestPercentileInit:
    def test_median_for_k1(self):
        means = percentile_init(np.arange(1.0, 101.0), 1)
        assert means[0] == pytest.approx(50.5)

    def test_k_equals_n_non_decreasing(self):
        vals = np.random.default_rng(0).normal(size=20)
        means = percentile_init(vals, 20)
        assert np.all(np.diff(means) >= 0)
        assert means.min() >= vals.min() and means.max() <= vals.max()

    def test_constant_data(self):
        means = percentile_init([3.0] * 10, 4)
        np.testing.assert_array_equal(means, 3.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile_init([], 2)


class TestEmFit:
    def test_two_well_separated_clusters(self):
        vals = [0.0, 0.0, 0.0, 10.0, 10.0, 10.0]
        fit = em_fit(vals, 2)
        means = sorted(fit.means)
        assert means[0] == pytest.approx(0.0, abs=1e-6)
        assert means[1] == pytest.approx(10.0, abs=1e-6)
        np.testing.assert_allclose(fit.weights, 0.5, atol=1e-9)

    def test_k1_closed_form(self):
        vals = np.array([1.0, 2.0, 3.0, 7.0])
        fit = em_fit(vals, 1)
        assert fit.means[0] == pytest.approx(vals.mean())
        expected_var = max(float(vals.var()), variance_floor(vals))
        assert fit.variances[0] == pytest.approx(expected_var)

    def test_trace_monotone_on_random_data(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            vals = rng.normal(size=60) * rng.uniform(0.5, 5) + rng.normal()
            fit = em_fit(vals, 4)
            diffs = np.diff(fit.log_likelihood_trace)
            assert np.all(diffs >= -1e-9)

    def test_k_exceeding_distinct_values_rejected(self):
        with pytest.raises(ValueError):
            em_fit([1.0, 1.0, 2.0], 3)

    def test_collapsed_component_floored_with_warning(self):
        vals = [float(v) for v in range(10)] + [1000.0]
        with pytest.warns(UserWarning):
            fit = em_fit(vals, 2, init_means=[4.5, 1000.0])
        floor = variance_floor(np.asarray(vals))
        assert np.all(fit.variances >= floor - 1e-300)

    def test_one_flooring_warning_per_fit(self):
        vals = [float(v) for v in range(10)] + [1000.0]
        with pytest.warns(UserWarning, match="floored") as record:
            fit = em_fit(vals, 2, init_means=[4.5, 1000.0])
        assert len(record) == 1
        iterations = int(re.search(r"on (\d+) EM iteration", str(record[0].message))[1])
        assert 1 < iterations < len(fit.log_likelihood_trace)

    def test_log_likelihood_drop_names_k(self, monkeypatch):
        force_log_likelihood_drop(monkeypatch)
        with pytest.raises(ValueError, match=r"K=2: EM log-likelihood decreased by") as exc:
            em_fit([float(v) for v in range(50)], 2)
        # one nat per point, less what the first EM step gained
        assert 40.0 < float(str(exc.value).rsplit(" ", 1)[1]) < 50.0


def force_log_likelihood_drop(monkeypatch):
    """Lower every log density by one nat from EM's second iteration on, so
    the N-point log-likelihood falls by about N."""
    calls = []
    real = gmm._log_pdf_matrix

    def dropping(values, means, variances):
        calls.append(None)
        return real(values, means, variances) - (len(calls) > 1)

    monkeypatch.setattr(gmm, "_log_pdf_matrix", dropping)


class TestBank:
    def test_size_on_ample_data(self):
        vals = np.random.default_rng(1).normal(50, 20, size=5000)
        bank, traces = build_component_bank(vals)
        assert bank.size == sum(BANK_SIZES) == 254
        assert sorted(traces) == list(BANK_SIZES)

    def test_bimodal_modes_found(self):
        rng = np.random.default_rng(2)
        vals = np.concatenate([rng.normal(0, 1, 500), rng.normal(50, 1, 500)])
        bank, _ = build_component_bank(vals)
        k2 = bank.means[bank.source_k == 2]
        assert min(abs(k2 - 0.0)) < 1.0
        assert min(abs(k2 - 50.0)) < 1.0

    def test_deterministic(self):
        vals = np.random.default_rng(3).normal(size=400)
        b1, _ = build_component_bank(vals)
        b2, _ = build_component_bank(vals)
        np.testing.assert_array_equal(b1.means, b2.means)
        np.testing.assert_array_equal(b1.variances, b2.variances)

    def test_oversized_k_skipped_with_warning(self):
        vals = list(range(10))
        with pytest.warns(UserWarning):
            bank, traces = build_component_bank([float(v) for v in vals])
        assert 16 not in traces and 128 not in traces
        assert bank.size == 2 + 4 + 8

    def test_save_load_exact_roundtrip(self, tmp_path):
        vals = np.random.default_rng(4).normal(size=300)
        bank, _ = build_component_bank(vals)
        path = tmp_path / "bank.txt"
        bank.save(str(path))
        first = path.read_text().splitlines()[0]
        assert first == f"#components={bank.size}"
        loaded = GaussianMixtureBank.load(str(path))
        np.testing.assert_array_equal(loaded.means, bank.means)
        np.testing.assert_array_equal(loaded.variances, bank.variances)
        np.testing.assert_array_equal(loaded.source_k, bank.source_k)

    @pytest.mark.parametrize("body", ["60.0 4.0 2\n", "60.0 4.0 2\n1.0 2.0\n7.0 1.0 2\n"])
    def test_truncated_bank_rejected(self, tmp_path, body):
        path = tmp_path / "bank.txt"
        path.write_text("#components=3\n" + body)
        with pytest.raises(ValueError, match=r"bank\.txt.* 3 components.*found [12] rows"):
            GaussianMixtureBank.load(str(path))
