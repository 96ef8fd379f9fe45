"""Robust statistical threshold estimators (Beloglazov & Buyya 2012).

PABFD's adaptive upper utilisation threshold is derived from historical
CPU utilisation with robust dispersion statistics: the Median Absolute
Deviation (the paper's configuration) or the Inter-Quartile Range.

``T_upper = 1 - s * MAD``   (safety parameter s; B&B use s = 2.58)
``T_upper = 1 - s * IQR``   (s = 1.5 in B&B's IQR variant)

:func:`mad_upper_threshold` also takes a whole fleet's windows at once:
an ``(n, W)`` matrix, one row per host, NaN marking an empty slot.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.validation import check_fraction, check_non_negative

__all__ = ["mad", "iqr", "mad_upper_threshold", "iqr_upper_threshold"]


def mad(samples: Sequence[float]) -> float:
    """Median absolute deviation: ``median(|x - median(x)|)``."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mad of an empty sample set")
    med = np.median(arr)
    return float(np.median(np.abs(arr - med)))


def iqr(samples: Sequence[float]) -> float:
    """Inter-quartile range: ``Q3 - Q1``."""
    arr = np.asarray(list(samples), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("iqr of an empty sample set")
    q1, q3 = np.percentile(arr, [25.0, 75.0])
    return float(q3 - q1)


def _upper(dispersion: float, safety: float, floor: float) -> float:
    """Clamp ``1 - safety * dispersion`` into [floor, 1]."""
    t = 1.0 - safety * dispersion
    return float(min(1.0, max(floor, t)))


def _mad_rows(block: np.ndarray) -> np.ndarray:
    """Per-row MAD of a NaN-free ``(n, k)`` block."""
    med = np.median(block, axis=1)
    return np.median(np.abs(block - med[:, None]), axis=1)


def _mad_upper_thresholds(
    windows: np.ndarray, safety: float, floor: float
) -> np.ndarray:
    """Per-row thresholds of an ``(n, W)`` window matrix (NaN = no sample).

    Rows are grouped by sample count; a short row's samples are moved to
    its front by sorting (NaN sorts last).  The median of a row depends
    only on the multiset of its samples, so every value equals the 1-D
    call on that row's samples bit for bit.
    """
    n, width = windows.shape
    counts = width - np.count_nonzero(np.isnan(windows), axis=1)
    out = np.ones(n, dtype=np.float64)
    for count in np.unique(counts[counts >= 3]):
        rows = np.flatnonzero(counts == count)
        block = windows[rows]
        if count < width:
            block = np.sort(block, axis=1)[:, :count]
        t = 1.0 - safety * _mad_rows(block)
        out[rows] = np.minimum(1.0, np.maximum(floor, t))
    return out


def mad_upper_threshold(
    history: "Sequence[float] | np.ndarray", safety: float = 2.58, floor: float = 0.5
) -> "float | np.ndarray":
    """Adaptive upper threshold from CPU history via MAD.

    ``floor`` guards against degenerate histories (huge dispersion would
    otherwise drive the threshold to 0 and declare everything
    overloaded).  With an empty/short history, returns 1.0 (no basis to
    restrict yet).

    ``history`` is one host's samples (returns a float) or an ``(n, W)``
    float matrix of n hosts' windows, NaN marking an empty slot (returns
    an ``(n,)`` array; a row with fewer than 3 samples gives 1.0).
    """
    check_non_negative(safety, "safety")
    check_fraction(floor, "floor")
    if isinstance(history, np.ndarray) and history.ndim == 2:
        return _mad_upper_thresholds(history, safety, floor)
    if len(history) < 3:
        return 1.0
    return _upper(mad(history), safety, floor)


def iqr_upper_threshold(
    history: Sequence[float], safety: float = 1.5, floor: float = 0.5
) -> float:
    """Adaptive upper threshold from CPU history via IQR."""
    check_non_negative(safety, "safety")
    check_fraction(floor, "floor")
    if len(history) < 3:
        return 1.0
    return _upper(iqr(history), safety, floor)
