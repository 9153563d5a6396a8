"""Evaluation metrics: MSE, ESR, NRMSE, spectral flux, multi-resolution STFT.

``METRICS`` maps each reported metric's name to its function in CSV column
order; reports, their CSV rows and the CLI's comparison columns follow it.

The two spectral metrics compare target y against prediction y_hat through
the Hann-windowed magnitude STFTs of ``numerics.stft_mag``, at fixed
settings: spectral flux at ``SF_WINDOW`` samples with hop ``SF_HOP``, the
multi-resolution distance at each of ``MULTIRES_WINDOWS`` with hop m/4.
Both normalize by the target, so neither is symmetric in its arguments;
that is deliberate.  Denominators and log arguments are floored at 1e-7.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import InputError, MetricUndefinedError
from .numerics import MAG_FLOOR, stft_mag

SF_WINDOW = 2048
SF_HOP = 512
MULTIRES_WINDOWS = (256, 512, 1024)
MIN_SIGNAL_LEN = 2 * SF_WINDOW  # shortest signal every metric accepts: two spectral-flux frames


def _pair(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.ndim != 1 or y_hat.ndim != 1:
        raise InputError("metrics take 1-d signals")
    if y.shape != y_hat.shape:
        raise InputError(f"length mismatch: {y.shape[0]} vs {y_hat.shape[0]}")
    return y, y_hat


def mse(y, y_hat) -> float:
    y, y_hat = _pair(y, y_hat)
    if y.size == 0:
        raise InputError("mse on empty signals")
    return float(np.mean((y - y_hat) ** 2))


def esr(y, y_hat) -> float:
    """Error-to-signal ratio: sum((y - y_hat)^2) / sum(y^2)."""
    y, y_hat = _pair(y, y_hat)
    energy = float(y @ y)
    if energy == 0.0:
        raise MetricUndefinedError("ESR undefined for a zero-energy target")
    d = y - y_hat
    return float(d @ d) / energy


def nrmse(y, y_hat) -> float:
    """RMSE of the error normalized by the RMSE of the target (= sqrt(ESR))."""
    return float(np.sqrt(esr(y, y_hat)))


def spectral_flux_metric(y, y_hat) -> float:
    """Compare target and predicted spectral flux, normalized by the target's.

    Flux is the elementwise magnitude change between consecutive STFT
    frames.  The metric is the L1 norm of the flux difference divided by
    the L1 norm of the target's flux (floored at 1e-7): a norm ratio, so
    near-silent cells cannot dominate, and transient mismatches that
    sample-domain averages wash out still register.
    """
    y, y_hat = _pair(y, y_hat)
    if y.shape[0] < MIN_SIGNAL_LEN:
        raise InputError(f"signals must hold at least {MIN_SIGNAL_LEN} samples "
                         f"for two {SF_WINDOW}-sample frames")
    my = stft_mag(y, SF_WINDOW, SF_HOP)
    mh = stft_mag(y_hat, SF_WINDOW, SF_HOP)
    flux_y = np.abs(np.diff(my, axis=0))
    flux_h = np.abs(np.diff(mh, axis=0))
    return float(np.abs(flux_y - flux_h).sum() / max(flux_y.sum(), MAG_FLOOR))


def multires_stft_metric(y, y_hat) -> float:
    """Sum over resolutions of linear and log spectral L1 distances.

    For each window size m (hop m/4) the linear term is the norm ratio
    sum(| |Y| - |Yhat| |) / sum(|Y|) and the log term the per-cell mean of
    | log|Y| - log|Yhat| |, with magnitudes floored at 1e-7 inside logs and
    denominators.  Both normalize by the target, so the metric is
    deliberately asymmetric in its arguments.
    """
    y, y_hat = _pair(y, y_hat)
    if y.shape[0] < max(MULTIRES_WINDOWS):
        raise InputError(f"signals must hold at least {max(MULTIRES_WINDOWS)} samples")
    total = 0.0
    for m in MULTIRES_WINDOWS:
        my = stft_mag(y, m, m // 4)
        mh = stft_mag(y_hat, m, m // 4)
        lin = np.abs(my - mh).sum() / max(my.sum(), MAG_FLOOR)
        log = np.abs(np.log(np.maximum(my, MAG_FLOOR)) - np.log(np.maximum(mh, MAG_FLOOR)))
        total += float(lin) + float(np.mean(log))
    return total


METRICS = {"mse": mse, "esr": esr, "nrmse": nrmse, "m_sf": spectral_flux_metric,
           "m_stft": multires_stft_metric}


@dataclass
class MetricReport:
    """All metric values for one model on one signal pair, plus provenance.
    The float fields are the keys of ``METRICS``, in order."""

    mse: float
    esr: float
    nrmse: float
    m_sf: float
    m_stft: float
    model: str = ""
    dataset: str = ""
    split: str = ""
    CSV_FIELDS: ClassVar[tuple] = ("model", "dataset", "split", *METRICS)

    def csv_row(self) -> list:
        return [self.model, self.dataset, self.split, *(f"{getattr(self, m):.9e}" for m in METRICS)]


def compute_report(y, y_hat, model: str = "", dataset: str = "", split: str = "") -> MetricReport:
    """Evaluate every metric on one target/prediction pair."""
    return MetricReport(*(f(y, y_hat) for f in METRICS.values()),
                        model=model, dataset=dataset, split=split)


def write_report_csv(path, reports: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MetricReport.CSV_FIELDS)
        for r in reports:
            writer.writerow(r.csv_row())


def mean_report(reports: list, model: str = "", dataset: str = "") -> MetricReport:
    """Arithmetic mean of each metric across reports (the summary row)."""
    if not reports:
        raise InputError("mean_report needs at least one report")
    return MetricReport(*(float(np.mean([getattr(r, m) for r in reports])) for m in METRICS),
                        model=model or reports[0].model, dataset=dataset or reports[0].dataset,
                        split="mean")
