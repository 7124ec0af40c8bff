"""Lagged least-squares autoregression, used as the comparison predictor.

The model regresses each value on an intercept plus its previous ``lag``
values, fitted by ordinary least squares over the normal equations.  The lag
is chosen by AIC over candidates 1..max_lag, all fitted on the same rows
(those with ``max_lag`` predecessors) so their likelihoods are comparable.

Every fit reads its normal equations off prefix sums of the series and of
its lagged products ``y(s) * y(s + d)``.  Detection builds them once per
series, sized to the largest candidate lag of its windows, ``L``: that takes
``(L + 2) * (len + 1)`` floats for one series at a time, and each window
then costs O(L^2) however long its history.  ``fit_ar`` builds them over its
own history and takes the same path.  Each window sum is a difference of two
prefix sums.  For integer counts no prefix sum exceeds the total of
``y**2``: below ``MAX_COUNT`` every sum is exact, and past it detection
builds no sums and fits every window with ``fit_ar`` alone, so a window fits
bit for bit as it would from its own history alone.  Every series holds
such counts (:class:`~dnswatch.model.MinuteSeries` checks them).

Detection fits the windows of a series in stacks of at most ``_CHUNK``
that share a largest candidate lag: one stacked Cholesky factorization and
one stacked forward solve per stack, and one stacked coefficient solve per
chosen lag.  numpy factors and solves each matrix of a stack on its own, so
every window gets the bits it would get alone.  A stack that does not factor
with the first ridge step is fitted by ``fit_ar``.  The stack bound
keeps the memory small: a stack holds up to 8 Gram matrices of 61 x 61
floats, about 240 KB, plus temporaries of that size.  A window whose
history has fewer than 4 values, or no nonzero value, is a lag-0 model, its
mean, and is never fitted: for an all-zero history the fit's answer is
fixed in advance, a forecast of 0.  All windows of a series are then
forecast together, one multiply and one cumulative sum per step adding the
terms in ``forecast_ar``'s order, in about ``4 * L + h`` floats per window;
a lag-0 model's forecast is its mean, held flat.

Detection reuses the exact thresholds and decision rule of the matching
detector, so the two methods differ only in how the predicted window is
produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .detector import DetectorConfig, Window, WindowFlag, _decide, _plan_windows
from .model import MAX_COUNT, MinuteSeries

# numpy is imported inside the functions that compute with it, so that
# importing the package, and every command that fits no AR model, skips it.
if TYPE_CHECKING:
    import numpy as np

# Diagonal jitter so singular normal equations still solve: these absolute
# steps first, then steps scaled by the largest diagonal entry, which the
# absolute ones fall below the rounding of once counts are large.
_RIDGES = (1e-9, 1e-6, 1e-3, 1.0)
_RELATIVE_RIDGES = (1e-12, 1e-9, 1e-6, 1e-3, 1.0)
# Windows fitted per stacked factorization.  Each holds a Gram matrix of up
# to 61 x 61 floats, with several temporaries of that size, so the chunk
# bounds the memory; larger chunks gain little and cost peak RSS.
_CHUNK = 8


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

    def fit(self, lo: np.ndarray, t: np.ndarray, max_lag: int) -> tuple[np.ndarray, np.ndarray]:
        """Fit each ``y[lo[i]:t[i]]`` with candidate lags ``1..max_lag``.

        ``max_lag`` may not exceed the one the sums were built for.  Returns
        what ``_solve`` returns.
        """
        import numpy as np

        first = lo + max_lag  # the first target with max_lag predecessors
        rows = t - first
        flat = self._sums.ravel()
        offset = self._offset[: max_lag + 1, : max_lag + 1]
        # lagged products with a, b in 0..max_lag, 0 being the target y(s)
        gram = flat.take(offset + t[:, None, None]) - flat.take(offset + first[:, None, None])
        k = np.arange(max_lag + 1)
        # sum(y[s - a])
        level = self._sums[-1, t[:, None] - k] - self._sums[-1, first[:, None] - k]
        target_sq = gram[:, 0, 0].copy()
        cross = gram[:, 0].copy()
        cross[:, 0] = level[:, 0]
        # swap the target for the intercept: Gram of [1, y(s-1)..y(s-max_lag)]
        gram[:, 0] = level
        gram[:, :, 0] = level
        gram[:, 0, 0] = rows
        return _solve(gram, cross, target_sq, rows)


def _ridges(gram: np.ndarray):
    yield from _RIDGES
    scale = gram.diagonal(axis1=1, axis2=2).max(axis=1)[:, None, None]
    for ridge in _RELATIVE_RIDGES:
        yield ridge * scale


def _solve(
    gram: np.ndarray, cross: np.ndarray, target_sq: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keep, for each of a stack of windows, the lag minimizing AIC among 1..max_lag.

    All candidates of a window share one Cholesky factorization of its
    ridge-adjusted normal equations: the factor of each leading block is the
    leading block of the factor, so a single forward substitution yields
    every candidate's residual sum (``rss_p = y'y - |forward_solution[:p+1]|^2``)
    and only the winning lag needs a full solve.  numpy's stacked linalg
    calls factor and solve each matrix on its own, so a window gets the bits
    it would get alone.  A single window walks the ridge steps; a larger
    stack that does not factor with the first ridge raises ``LinAlgError``.

    Returns the lags and the coefficients, intercept first, zero past each lag.
    """
    import numpy as np

    count, size = gram.shape[0], gram.shape[1]
    eye = np.eye(size)
    for ridge in _ridges(gram):
        try:
            chol = np.linalg.cholesky(gram + ridge * eye)
            break
        except np.linalg.LinAlgError:
            if count > 1:
                raise
    else:
        raise np.linalg.LinAlgError("normal equations could not be factorized")
    # a stacked right-hand side, which numpy 1.x and 2.x read alike
    forward = np.linalg.solve(chol, cross[..., None])[..., 0]
    explained = np.cumsum(forward * forward, axis=1)
    ps = np.arange(1, size)
    rss = np.maximum(target_sq[:, None] - explained[:, 1:], 0.0)
    aic = rows[:, None] * np.log(np.maximum(rss / rows[:, None], 1e-300)) + 2 * (ps + 1)
    lags = ps[np.argmin(aic, axis=1)]
    coef = np.zeros((count, size))
    for lag in sorted(set(lags.tolist())):
        chosen = lags == lag
        upper = chol[chosen, : lag + 1, : lag + 1].transpose(0, 2, 1)
        coef[chosen, : lag + 1] = np.linalg.solve(upper, forward[chosen, : lag + 1, None])[..., 0]
    return lags, coef


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
    lags, coef = _LaggedSums(y, max_lag).fit(np.array([0]), np.array([y.size]), max_lag)
    lag = int(lags[0])
    return ArModel(lag=lag, coefficients=tuple(coef[0, : lag + 1].tolist()))


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


def _forecast_all(
    y: np.ndarray, t: np.ndarray, lags: np.ndarray, coef: np.ndarray, h: int
) -> np.ndarray:
    """``forecast_ar`` of every window ``i`` of ``y`` ending at ``t[i]``, at once.

    Each step forms the lag terms ``coef[i] * y(s - i)`` of every window in
    one multiply and sums them down the lags in one cumulative sum, which adds
    ``coef[0]`` and then terms ``1, 2, ...`` in forecast_ar's order; a window
    reads its sum at its own lag.  Returns one row of ``h`` values per window.
    """
    import numpy as np

    top = int(lags.max())
    coef = coef[:, : top + 1].T.copy()
    # terms past a window's lag are never formed: an inf forecast adds no 0 * inf
    within = np.arange(1, top + 1)[:, None] <= lags
    terms = np.zeros((top + 1, lags.size))
    terms[0] = coef[0]
    sums = np.empty_like(terms)
    # row top + j holds step j, the rows above it the history, clipped at minute 0
    buf = np.empty((top + h, lags.size))
    buf[:top] = y[np.maximum(t - top + np.arange(top)[:, None], 0)]
    for j in range(h):
        # row i - 1 of the reversed rows is y(s - i)
        np.multiply(coef[1:], buf[j : top + j][::-1], out=terms[1:], where=within)
        terms.cumsum(axis=0, out=sums)
        buf[top + j] = sums[lags, np.arange(lags.size)]
    return buf[top:].T


def _predict_ar(
    values: Sequence[float], cfg: DetectorConfig, windows: Sequence[Window]
) -> list[list[float]]:
    """The AR forecast of each window, fitted on its history ``values[lo:t]``.

    Windows are fitted in chunks of at most ``_CHUNK`` that share a
    ``max_lag``, and all are forecast in one pass.  A history of fewer than 4
    values is too short for any regression: it is a lag-0 model whose
    intercept is its mean, which the forecast holds flat.  So is a history
    with no nonzero value, found from one prefix count of nonzero minutes,
    without a fit: its mean is 0, and a fit would give the same forecast,
    since its Gram matrix is zero off the intercept and its cross products
    are zero, so AIC keeps lag 1 with zero coefficients.  A -0.0 minute
    counts as zero; ``mse`` and ``cosine`` read a zero forecast of either
    sign alike, so no flag or score depends on the sign.
    """
    import numpy as np

    arr = np.asarray(values, dtype=float)
    t = np.array([w.t for w in windows])
    lo = np.array([w.lo for w in windows])
    # a history of n >= 4 values gives n >= 2 * (n // 4) + 2, the fit precondition
    max_lags = np.minimum(60, (t - lo) // 4)
    # nonzero[i]: how many of values[:i] are nonzero
    nonzero = np.concatenate(([0], np.cumsum(arr != 0.0)))
    max_lags[nonzero[t] == nonzero[lo]] = 0
    top = int(max_lags.max())
    # For integer counts no prefix sum exceeds sum(y**2), so below MAX_COUNT
    # every sum is exact; it is added up here as row 0 of the sums adds it.
    sums = _LaggedSums(arr, top) if np.cumsum(arr * arr)[-1] < MAX_COUNT else None
    lags = np.zeros(len(windows), dtype=int)
    coef = np.zeros((len(windows), top + 1))
    for max_lag in sorted(set(max_lags.tolist())):
        group = np.flatnonzero(max_lags == max_lag)
        if not max_lag:
            coef[group, 0] = [arr[lo[i] : t[i]].mean() for i in group.tolist()]
            continue
        for start in range(0, group.size, _CHUNK):
            chunk = group[start : start + _CHUNK]
            if sums is not None:
                try:
                    lags[chunk], coef[chunk, : max_lag + 1] = sums.fit(lo[chunk], t[chunk], max_lag)
                    continue
                except np.linalg.LinAlgError:
                    pass  # the stack does not factor with the first ridge
            for i in chunk.tolist():
                model = fit_ar(arr[lo[i] : t[i]], max_lag)
                lags[i], coef[i, : model.lag + 1] = model.lag, model.coefficients
    return _forecast_all(arr, t, lags, coef, cfg.h).tolist()


def detect_series_ar(series: MinuteSeries, cfg: DetectorConfig) -> list[WindowFlag]:
    """Same windows, thresholds and decision as the matching detector, with
    the prediction produced by an AIC-selected autoregression over the
    lookback history."""
    windows = _plan_windows(series, cfg)
    return _decide(series, cfg, windows, _predict_ar(series.values, cfg, windows))
