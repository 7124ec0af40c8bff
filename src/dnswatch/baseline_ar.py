"""Lagged least-squares autoregression, used as the comparison predictor.

The model regresses each value on an intercept plus its previous ``lag``
values, fitted by ordinary least squares over the normal equations.  The lag
is chosen by AIC over candidates 1..max_lag, all fitted on the same rows
(those with ``max_lag`` predecessors) so their likelihoods are comparable.

Detection reuses the exact thresholds and decision rule of the matching
detector, so the two methods differ only in how the predicted window is
produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .detector import DetectorConfig, ThresholdSet, WindowFlag, _detect_loop
from .model import MinuteSeries

_RIDGE = 1e-9  # diagonal jitter so singular normal equations still solve


@dataclass(frozen=True)
class ArModel:
    lag: int
    coefficients: tuple[float, ...]  # intercept first, then lag weights


def _lagged_normal_equations(y: np.ndarray, max_lag: int):
    """Gram matrix and cross products of [1, y(t-1)..y(t-max_lag)] vs y(t).

    Built from prefix sums of lagged products, O(n * max_lag) instead of the
    O(n * max_lag^2) dense product.
    """
    n_total = y.size
    L = max_lag
    rows = n_total - L
    csum = np.concatenate(([0.0], np.cumsum(y)))
    lag_sums = [np.concatenate(([0.0], np.cumsum(y[: n_total - d] * y[d:]))) for d in range(L + 1)]
    gram = np.empty((L + 1, L + 1))
    gram[0, 0] = rows
    cols = np.arange(1, L + 1)
    gram[0, 1:] = csum[n_total - cols] - csum[L - cols]
    gram[1:, 0] = gram[0, 1:]
    for d in range(L):
        j = np.arange(d + 1, L + 1)
        vals = lag_sums[d][n_total - j] - lag_sums[d][L - j]
        gram[j - d, j] = vals
        gram[j, j - d] = vals
    cross = np.empty(L + 1)
    cross[0] = csum[n_total] - csum[L]
    for i in range(1, L + 1):
        cross[i] = lag_sums[i][n_total - i] - lag_sums[i][L - i]
    target_sq = float(lag_sums[0][n_total] - lag_sums[0][L])
    return gram, cross, target_sq, rows


def fit_ar(history: Sequence[float], max_lag: int) -> ArModel:
    """Fit candidates 1..max_lag and keep the one minimizing AIC.

    All candidates share one Cholesky factorization of the ridge-adjusted
    normal equations: the factor of each leading block is the leading block
    of the factor, so a single forward substitution yields every candidate's
    residual sum (``rss_p = y'y - |forward_solution[:p+1]|^2``) and only the
    winning lag needs a full solve.
    """
    y = np.asarray(history, dtype=float)
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    if y.size < 2 * max_lag + 2:
        raise ValueError(
            f"history must have at least {2 * max_lag + 2} values for max_lag={max_lag}, got {y.size}"
        )
    gram, cross, target_sq, rows = _lagged_normal_equations(y, max_lag)
    chol = None
    for ridge in (_RIDGE, 1e-6, 1e-3, 1.0):
        try:
            chol = np.linalg.cholesky(gram + ridge * np.eye(max_lag + 1))
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:  # pragma: no cover - gram is PSD, a ridge always works
        raise np.linalg.LinAlgError("normal equations could not be factorized")
    forward = np.linalg.solve(chol, cross)
    explained = np.cumsum(forward * forward)
    ps = np.arange(1, max_lag + 1)
    rss = np.maximum(target_sq - explained[ps], 0.0)
    aic = rows * np.log(np.maximum(rss / rows, 1e-300)) + 2 * (ps + 1)
    lag = int(ps[np.argmin(aic)])
    coef = np.linalg.solve(chol[: lag + 1, : lag + 1].T, forward[: lag + 1])
    return ArModel(lag=lag, coefficients=tuple(float(c) for c in coef))


def forecast_ar(model: ArModel, history: Sequence[float], h: int) -> list[float]:
    """Iterate one-step predictions ``h`` times, feeding forecasts back in."""
    if len(history) < model.lag:
        raise ValueError(f"history must hold at least lag={model.lag} values")
    buf = [float(v) for v in history[len(history) - model.lag :]]
    coef = model.coefficients
    out: list[float] = []
    for _ in range(h):
        nxt = coef[0]
        for i in range(1, model.lag + 1):
            nxt += coef[i] * buf[-i]
        out.append(nxt)
        buf.append(nxt)
    return out


def _ar_predictor(values: Sequence[float], cfg: DetectorConfig):
    arr = np.asarray(values, dtype=float)

    def predict_window(lo: int, t: int, thr: ThresholdSet) -> Optional[Sequence[float]]:
        history = arr[lo:t]
        n = history.size
        if n < 4:
            # too short for any regression; hold the mean flat
            return [float(history.mean())] * cfg.h
        # n >= 4 gives n >= 2 * (n // 4) + 2, the fit precondition
        model = fit_ar(history, min(60, n // 4))
        return forecast_ar(model, history, cfg.h)

    return predict_window


def detect_series_ar(series: MinuteSeries, cfg: DetectorConfig) -> list[WindowFlag]:
    """Same windows, thresholds and decision as the matching detector, with
    the prediction produced by an AIC-selected autoregression over the
    lookback history."""
    return _detect_loop(series, cfg, _ar_predictor(series.values, cfg))
