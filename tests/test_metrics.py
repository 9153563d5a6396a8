from dataclasses import fields

import numpy as np
import pytest

from statefx.errors import InputError, MetricUndefinedError
from statefx.metrics import (
    METRICS,
    MetricReport,
    compute_report,
    esr,
    mean_report,
    mse,
    multires_stft_metric,
    nrmse,
    spectral_flux_metric,
    write_report_csv,
)

import oracles

RNG = np.random.default_rng(12)


def test_esr_values():
    y = RNG.normal(size=1000)
    assert esr(y, y) == 0.0
    assert esr(y, np.zeros(1000)) == pytest.approx(1.0)
    assert esr(y, 2 * y) == pytest.approx(1.0)


def test_esr_zero_target_undefined():
    with pytest.raises(MetricUndefinedError):
        esr(np.zeros(100), RNG.normal(size=100))


def test_nrmse_values():
    y = RNG.normal(size=1000)
    assert nrmse(y, y) == 0.0
    assert nrmse(y, np.zeros(1000)) == pytest.approx(1.0)


def test_nrmse_squared_equals_esr():
    for _ in range(20):
        y = RNG.normal(size=777)
        y_hat = y + 0.1 * RNG.normal(size=777)
        assert abs(nrmse(y, y_hat) ** 2 - esr(y, y_hat)) < 1e-12


def test_esr_nrmse_match_loop_oracles():
    for _ in range(5):
        y = RNG.normal(size=400)
        y_hat = RNG.normal(size=400)
        assert esr(y, y_hat) == pytest.approx(oracles.esr_oracle(y, y_hat), rel=1e-12)
        assert nrmse(y, y_hat) == pytest.approx(oracles.nrmse_oracle(y, y_hat), rel=1e-12)


def test_spectral_flux_zero_on_identical():
    y = RNG.normal(size=3 * 2048)
    assert spectral_flux_metric(y, y) == 0.0


def test_spectral_flux_too_short():
    with pytest.raises(InputError):
        spectral_flux_metric(np.zeros(3000), np.zeros(3000))


def test_spectral_flux_stationary_sines_vs_oracle():
    # stationary frames make each flux cell a cancellation of two nearly
    # equal magnitudes, so rfft-vs-direct-DFT rounding shows up amplified;
    # 1e-6 relative is the attainable agreement here (random signals with
    # genuine flux agree to 1e-9, tested below)
    t = np.arange(6000)
    y = np.sin(2 * np.pi * 440 * t / 48000)
    y_hat = 0.6 * np.sin(2 * np.pi * 440 * t / 48000)
    mine = spectral_flux_metric(y, y_hat)
    ref = oracles.spectral_flux_oracle(y, y_hat)
    assert mine == pytest.approx(ref, rel=1e-6)


def test_spectral_flux_detects_transient_mismatch():
    # target has an amplitude step; prediction is stationary
    n = 8192
    t = np.arange(n)
    y = np.sin(2 * np.pi * 500 * t / 48000)
    y[n // 2:] *= 3.0
    y_hat = np.sin(2 * np.pi * 500 * t / 48000)
    assert spectral_flux_metric(y, y_hat) > 0.0


def test_spectral_flux_matches_oracle_random():
    y = RNG.normal(size=5500)
    y_hat = y + 0.3 * RNG.normal(size=5500)
    assert spectral_flux_metric(y, y_hat) == pytest.approx(
        oracles.spectral_flux_oracle(y, y_hat), rel=1e-9)


def test_multires_zero_on_identical():
    y = RNG.normal(size=4000)
    assert multires_stft_metric(y, y) == 0.0


def test_multires_scaling_case_vs_oracle():
    y = RNG.normal(size=3000) + 0.1
    alpha = 2.5
    mine = multires_stft_metric(y, alpha * y)
    ref = oracles.multires_stft_oracle(y, alpha * y)
    assert mine == pytest.approx(ref, rel=1e-9)
    # closed form: each resolution contributes (alpha - 1) from the norm
    # ratio and |log alpha| from the per-cell log mean (magnitudes of this
    # offset-bearing signal stay above the floor)
    expected = 3 * (alpha - 1.0) + 3 * np.log(alpha)
    assert mine == pytest.approx(expected, rel=1e-9)


def test_multires_matches_oracle_random():
    y = RNG.normal(size=2600)
    y_hat = y + 0.2 * RNG.normal(size=2600)
    assert multires_stft_metric(y, y_hat) == pytest.approx(
        oracles.multires_stft_oracle(y, y_hat), rel=1e-9)


def test_multires_too_short():
    with pytest.raises(InputError):
        multires_stft_metric(np.zeros(1000), np.zeros(1000))


def test_spectral_metrics_one_second_oracle_equivalence():
    # 1-second signals against the direct-DFT oracles
    y = RNG.normal(size=48000) * 0.5
    y_hat = y + 0.05 * RNG.normal(size=48000)
    assert spectral_flux_metric(y, y_hat) == pytest.approx(
        oracles.spectral_flux_oracle(y, y_hat), rel=1e-9)
    assert multires_stft_metric(y, y_hat) == pytest.approx(
        oracles.multires_stft_oracle(y, y_hat), rel=1e-9)


def test_metric_asymmetry_is_by_construction():
    y = RNG.normal(size=4096)
    y_hat = 0.3 * y + 0.1 * RNG.normal(size=4096)
    assert multires_stft_metric(y, y_hat) != pytest.approx(
        multires_stft_metric(y_hat, y), rel=1e-3)


def test_compute_report_all_zero_when_equal():
    y = RNG.normal(size=8192)
    rep = compute_report(y, y, model="lstm", dataset="identity", split="test")
    assert rep.mse == rep.esr == rep.nrmse == rep.m_sf == rep.m_stft == 0.0


def test_report_csv_round_trip(tmp_path):
    import csv
    y = RNG.normal(size=8192)
    reps = [compute_report(y, y + 0.01 * RNG.normal(size=8192), model="s4d",
                           dataset="waveshaper_overdrive", split=f"rec{i}") for i in range(3)]
    rows = reps + [mean_report(reps)]
    path = tmp_path / "eval.csv"
    write_report_csv(path, rows)
    with open(path) as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == 4
    assert parsed[-1]["split"] == "mean"
    assert [r["model"] for r in parsed] == ["s4d"] * 4
    assert float(parsed[0]["esr"]) == pytest.approx(reps[0].esr, rel=1e-6)
    mean_esr = np.mean([r.esr for r in reps])
    assert float(parsed[-1]["esr"]) == pytest.approx(mean_esr, rel=1e-6)


def test_metric_report_float_fields_are_the_metric_table():
    # the one place the metric names appear twice: report fields and METRICS
    assert tuple(f.name for f in fields(MetricReport) if f.type in (float, "float")) == tuple(METRICS)
    assert tuple(f.name for f in fields(MetricReport)) == (*METRICS, "model", "dataset", "split")
    assert MetricReport.CSV_FIELDS == ("model", "dataset", "split", *METRICS)
    y = RNG.normal(size=8192)
    rep = compute_report(y, 0.5 * y, model="lru")
    assert [getattr(rep, m) for m in METRICS] == [f(y, 0.5 * y) for f in METRICS.values()]
