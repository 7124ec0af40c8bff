"""Lagged least-squares autoregression, used as the comparison predictor.

The model regresses each value on an intercept plus its previous ``lag``
values, fitted by ordinary least squares over the normal equations.  The lag
is chosen by AIC over candidates 1..max_lag, all fitted on the same rows
(those with ``max_lag`` predecessors) so their likelihoods are comparable.

Every fit reads its normal equations off prefix sums of the series and of
its lagged products ``y(s) * y(s + d)``.  Detection builds them once per
series, sized to the largest lag any window can choose, ``L =
min(60, lookback // 4, len // 4)``: that takes ``(L + 2) * (len + 1)``
floats for one series at a time, and each window then costs O(L^2) however
long its history.  ``fit_ar`` builds them over its own history and takes the
same path.  Each window sum is a difference of two prefix sums.  For integer
counts whose prefix sums stay below 2**53 every sum is exact, so a window
fits bit for bit as it would from its own history alone.  On other values
the rounding error grows with the length of the prefix rather than the
window, most for a short lookback late in a long series.

Detection reuses the exact thresholds and decision rule of the matching
detector, so the two methods differ only in how the predicted window is
produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .detector import DetectorConfig, ThresholdSet, WindowFlag, _detect_loop
from .model import MinuteSeries

# numpy is imported inside the functions that compute with it, so that
# importing the package, and every command that fits no AR model, skips it.
if TYPE_CHECKING:
    import numpy as np

_RIDGE = 1e-9  # diagonal jitter so singular normal equations still solve


@dataclass(frozen=True)
class ArModel:
    lag: int
    coefficients: tuple[float, ...]  # intercept first, then lag weights


class _LaggedSums:
    """Prefix sums of ``y`` and of ``y(s) * y(s + d)`` for ``d = 0..max_lag``.

    Row ``d`` holds ``sum(y[r] * y[r + d] for r < i)`` at column ``i``,
    defined up to ``i = n - d``; the last row holds ``sum(y[r] for r < i)``.
    """

    def __init__(self, y: np.ndarray, max_lag: int):
        import numpy as np

        n = y.size
        self._sums = np.zeros((max_lag + 2, n + 1))
        for d in range(max_lag + 1):
            np.cumsum(y[: n - d] * y[d:], out=self._sums[d, 1 : n - d + 1])
        np.cumsum(y, out=self._sums[-1, 1:])
        # Over the targets s of a window, entry (a, b) of the lagged products
        # sum(y[s - a] * y[s - b]) lies in row |a - b| at column s - max(a, b);
        # this is its flat offset, to which a window adds its column bound.
        k = np.arange(max_lag + 1)
        self._offset = np.abs(k[:, None] - k) * (n + 1) - np.maximum(k[:, None], k)

    def fit(self, lo: int, t: int, max_lag: int) -> ArModel:
        """Fit ``y[lo:t]`` with candidate lags ``1..max_lag``.

        ``max_lag`` may not exceed the one the sums were built for.
        """
        import numpy as np

        first = lo + max_lag  # the first target with max_lag predecessors
        rows = t - first
        flat = self._sums.ravel()
        offset = self._offset[: max_lag + 1, : max_lag + 1]
        # lagged products with a, b in 0..max_lag, 0 being the target y(s)
        gram = flat.take(offset + t) - flat.take(offset + first)
        k = np.arange(max_lag + 1)
        level = self._sums[-1, t - k] - self._sums[-1, first - k]  # sum(y[s - a])
        target_sq = float(gram[0, 0])
        cross = gram[0].copy()
        cross[0] = level[0]
        # swap the target for the intercept: Gram of [1, y(s-1)..y(s-max_lag)]
        gram[0] = level
        gram[:, 0] = level
        gram[0, 0] = rows
        return _solve(gram, cross, target_sq, rows)


def _solve(gram: np.ndarray, cross: np.ndarray, target_sq: float, rows: int) -> ArModel:
    """Keep the lag minimizing AIC among candidates 1..max_lag.

    All candidates share one Cholesky factorization of the ridge-adjusted
    normal equations: the factor of each leading block is the leading block
    of the factor, so a single forward substitution yields every candidate's
    residual sum (``rss_p = y'y - |forward_solution[:p+1]|^2``) and only the
    winning lag needs a full solve.
    """
    import numpy as np

    max_lag = gram.shape[0] - 1
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


def fit_ar(history: Sequence[float], max_lag: int) -> ArModel:
    """Fit candidates 1..max_lag and keep the one minimizing AIC."""
    import numpy as np

    y = np.asarray(history, dtype=float)
    if max_lag < 1:
        raise ValueError("max_lag must be at least 1")
    if y.size < 2 * max_lag + 2:
        raise ValueError(
            f"history must have at least {2 * max_lag + 2} values for max_lag={max_lag}, got {y.size}"
        )
    return _LaggedSums(y, max_lag).fit(0, y.size, max_lag)


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
    import numpy as np

    arr = np.asarray(values, dtype=float)
    # sized to the largest max_lag a window asks for: a history holds at
    # most min(lookback, len) values
    sums = _LaggedSums(arr, min(60, cfg.lookback // 4, arr.size // 4))

    def predict_window(lo: int, t: int, thr: ThresholdSet) -> Optional[Sequence[float]]:
        history = arr[lo:t]
        n = history.size
        if n < 4:
            # too short for any regression; hold the mean flat
            return [float(history.mean())] * cfg.h
        # n >= 4 gives n >= 2 * (n // 4) + 2, the fit precondition
        model = sums.fit(lo, t, min(60, n // 4))
        return forecast_ar(model, history, cfg.h)

    return predict_window


def detect_series_ar(series: MinuteSeries, cfg: DetectorConfig) -> list[WindowFlag]:
    """Same windows, thresholds and decision as the matching detector, with
    the prediction produced by an AIC-selected autoregression over the
    lookback history."""
    return _detect_loop(series, cfg, _ar_predictor(series.values, cfg))
