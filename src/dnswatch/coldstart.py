"""How often should the tolerant search find anything at all?

These routines estimate the expected number of times a random pattern occurs
approximately in a random history.  The model assumes that every letter of
the pattern and of the history is drawn independently and uniformly from the
alphabet.  Traffic series are neither uniform nor independent, so the
estimate does not say how often the detector lacks a prediction on them.
Two counting modes for the per-window choices are provided: a coarse product
bound and an exact inclusion-exclusion count of bounded compositions.  All
counting is exact big-integer arithmetic; only the final expectation is a
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb


@dataclass(frozen=True)
class ColdStartParams:
    """Model parameters: history length ``l``, pattern length ``k``, letters
    with ``d`` digits (alphabet size ``10**d``), and integer tolerances."""

    l: int
    k: int
    d: int
    alpha: int
    beta: int

    def __post_init__(self) -> None:
        if not (self.l >= self.k >= 1):
            raise ValueError("need l >= k >= 1")
        if self.d < 1:
            raise ValueError("need d >= 1")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("tolerances must be non-negative")


def choice_count_lower(k: int, alpha: int, beta: int) -> int:
    """Coarse count of windows within tolerance of a fixed pattern:
    ``C(k, beta//alpha) * (2*alpha + 1)**(beta//alpha) * max(1, beta % alpha)``.

    This is a product estimate, not an exact enumeration; treat it as the
    low-side mode of :func:`expected_matches`.
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    shifts = beta // alpha
    if shifts > k:  # comb(k, shifts) is 0: skip the power, which grows with beta
        return 0
    return comb(k, shifts) * (2 * alpha + 1) ** shifts * max(1, beta % alpha)


def choice_count_ie(k: int, alpha: int, beta: int) -> int:
    """Exact number of ways to write ``beta`` as ``k`` ordered parts, each
    between 1 and ``alpha``, by inclusion-exclusion:
    ``sum_i (-1)**i * C(k, i) * C(beta - i*alpha - 1, k - 1)``.

    The sum stops at the last ``i`` whose upper argument is non-negative
    (``comb`` raises on a negative one), or at ``i = k`` if that comes first,
    since ``C(k, i)`` is 0 beyond it; below that, ``comb`` of an upper
    argument smaller than ``k - 1`` is 0.
    """
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    total = 0
    for i in range(min(k, (beta - 1) // alpha) + 1):
        term = comb(k, i) * comb(beta - i * alpha - 1, k - 1)
        total += term if i % 2 == 0 else -term
    return total


MODES = ("lower", "inclusion_exclusion")


def expected_matches(params: ColdStartParams, mode: str = "lower") -> Fraction:
    """Expected number of approximate occurrences of a random pattern in a
    random history, as an exact rational.

    The count of admissible windows per alignment comes from the selected
    mode, multiplied by the ``l - k + 1`` possible alignments; each
    admissible window is weighted by a letter-collision probability of
    ``10**-(d-1)`` per aligned position.  That exponent convention is fixed
    by the reference arithmetic this estimate reproduces.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "lower":
        choices = choice_count_lower(params.k, params.alpha, params.beta)
    else:
        choices = choice_count_ie(params.k, params.alpha, params.beta)
    alignments = params.l - params.k + 1
    return Fraction(alignments * choices, 10 ** ((params.d - 1) * params.k))

