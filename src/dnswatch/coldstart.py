"""How often should the tolerant search find anything at all?

These routines estimate the expected number of times a random pattern occurs
approximately in a random history.  The model assumes that every letter of
the pattern and of the history is drawn independently and uniformly from the
alphabet.  Traffic series are neither uniform nor independent, so the
estimate does not say how often the detector lacks a prediction on them.
Two counting modes for the per-window choices are provided: a coarse product
bound and an exact inclusion-exclusion count of bounded compositions.  All
counting is exact big-integer arithmetic; only the final expectation is a
ratio.  Parameters whose integers would take more than about a second to
build are rejected before any of them is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction


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
        # Inclusion-exclusion builds larger integers than the lower mode from
        # the same parameters, so what the lower mode cannot build in time no
        # mode can; expected_matches checks the mode it runs.
        _check_sizes(self, "lower")


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
    # imported here, so that only expect loads fractions (and decimal)
    from fractions import Fraction

    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    _check_sizes(params, mode)
    if mode == "lower":
        choices = choice_count_lower(params.k, params.alpha, params.beta)
    else:
        choices = choice_count_ie(params.k, params.alpha, params.beta)
    alignments = params.l - params.k + 1
    return Fraction(alignments * choices, 10 ** ((params.d - 1) * params.k))


# Limits on the exact integers of expected_matches, so that every input it
# accepts answers within a second: on a 2-core VM with Python 3.11 each limit
# alone takes about 0.3 s, and the slowest mix of them measured 0.86 s from
# the command line.  _POWER_BITS bounds the bit lengths of the ratio's
# denominator, 10**((d - 1) * k), and of its numerator.  _SQUARED_BITS bounds
# the costs that grow about as the product of two bit lengths: the square of
# the lower mode's binomial, the sum over the inclusion-exclusion terms of
# their binomials' bit lengths to the power _COMB_EXPONENT, and the
# numerator's bit length times the denominator's (Fraction's gcd of the two).
# math.comb's time grows about as the square of its result's size for the
# lower mode's one binomial of up to 2**18 bits, but only about as its 1.85th
# power over the terms of a few thousand bits each that inclusion-exclusion
# sums.
_POWER_BITS = 2**22
_SQUARED_BITS = 2**36
_COMB_EXPONENT = 1.85


def _comb_bits(n: int, r: int) -> int:
    """An upper bound on the bit length of ``comb(n, r)``, from
    ``comb(n, m) <= (e*n/m)**m`` with ``m = min(r, n - r)``; 0 if ``r > n``."""
    m = min(r, n - r)
    return m * (n.bit_length() - m.bit_length() + 3) if m > 0 else 0


def _check_sizes(params: ColdStartParams, mode: str) -> None:
    """Raise ValueError if an integer that :func:`expected_matches` builds in
    ``mode`` would pass its limit, estimated from bit lengths alone."""
    l, k, d, alpha, beta = params.l, params.k, params.d, params.alpha, params.beta
    if alpha < 1:  # both modes reject it before building anything
        return
    den = (d - 1) * k * 10 // 3  # a decimal digit takes less than 10/3 bits
    _check(den, _POWER_BITS, "--d and --k", "the bit length of 10**((d - 1) * k)")
    flags = "--k, --alpha and --beta"
    if mode == "lower":
        shifts = beta // alpha
        if k < shifts:  # choice_count_lower returns 0 at once
            return
        combs = _comb_bits(k, shifts)
        cost = combs**2
        what = "the squared bit lengths of the binomials of lower"
        num = combs + shifts * (2 * alpha + 1).bit_length() + alpha.bit_length()
    else:
        terms = max(0, min(k, (beta - 1) // alpha) + 1)
        # comb(beta - i*alpha - 1, k - 1) is largest at i = 0, and it bounds
        # the count of compositions, the sum
        num = _comb_bits(beta - 1, k - 1)
        bits = _comb_bits(k, min(terms - 1, k // 2)) + num
        # Capped so that the float stays finite; either cap alone passes the limit.
        cost = int(min(terms, 2**64) * min(bits, 2**64) ** _COMB_EXPONENT)
        what = f"the binomials of inclusion_exclusion, as bit lengths to the power {_COMB_EXPONENT}"
    _check(cost, _SQUARED_BITS, flags, what)
    num += l.bit_length()
    _check(num, _POWER_BITS, "--l, --k, --alpha and --beta", "the bit length of the numerator")
    flags = "--l, --k, --d, --alpha and --beta"
    _check(num * den, _SQUARED_BITS, flags, "the numerator's bit length times the denominator's")


def _check(value: int, limit: int, flags: str, what: str) -> None:
    if value > limit:
        raise ValueError(
            f"{flags} are too large to compute: {what} would be {value}, over {limit}"
        )
