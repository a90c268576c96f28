"""The second-price auction with a random reserve, and its simulated revenue.

Reports are treated as the bids.  With reserve CDF H, the higher bidder wins
with probability H(top bid) -- the chance the drawn reserve falls below her
bid -- and pays the expected value of max(second bid, reserve) conditional on
winning, which integrates to the closed form

    t_winner = s1 * H(s1) - integral of H over [s2, s1]      (s1 > s2).

This is Myerson's payment formula for the allocation H.  ``winner_payment``
evaluates it through the closed-form antiderivative K of H; single profiles,
Monte Carlo totals, the dominated equilibrium and the discretised mechanism
all take their payments from it.  Only ``verify`` recomputes the payment
another way, by quadrature, to check it.

Exact ties split both the allocation H(x) and the payment x*H(x) equally.
The loser never pays, and the truthful report is evaluated throughout.

``mc_revenue`` streams its samples: it walks the sample range in fixed
chunks of ``_MC_CHUNK`` pairs and folds each chunk's count, mean and sum of
squared deviations into running totals with the pairwise update of Chan,
Golub & LeVeque ("Algorithms for computing the sample variance", Amer.
Statist. 37(3), 1983).  No full-length array is ever held, so memory does
not grow with the sample count: ``simulate --samples 1e7`` peaks at about
62 MB RSS.

The chunks are independent -- Philox is counter-based (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011), so a chunk's draws
depend on (seed, start) alone -- and their kernels run in numpy and
``scipy.special.spence``, which release the GIL.  ``mc_revenue`` therefore
maps them over a thread pool with one worker per CPU the process may use,
but never fewer than ``_MC_CHUNKS_PER_WORKER`` chunks per worker; a run too
short for two workers, such as ``verify``'s, stays on the calling thread.
The chunk results are folded in chunk order either way, so the output is
byte-identical for any CPU count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .constants import (
    SolvedConstants,
    reserve_cdf,
    reserve_cdf_integral,
)
from .distributions import PiecewiseCdf
from .errors import MAX_SIZE, DomainError

# Signal pairs per Monte Carlo chunk: a fixed constant, so a result depends
# on (seed, n_samples) alone.
_MC_CHUNK = 65536

# Rows per kernel call inside a chunk.  Smaller slices spend the thread
# overlap on interpreter overhead; whole chunks raise the peak RSS.
_MC_SLICE = 16384

# A pool starts only with at least this many chunks per worker thread: a
# short run stays on the calling thread, which saves the second thread's
# malloc arena.
_MC_CHUNKS_PER_WORKER = 8

# ln(1/eps), eps = 2**-53: the span of the log-uniform tail-weighted levels
_TAIL_LOG_SPAN = 53.0 * math.log(2.0)

__all__ = [
    "BidProfile",
    "Outcome",
    "RevenueReport",
    "winner_payment",
    "outcome",
    "uniform_pairs",
    "mc_revenue",
    "dominated_equilibrium_revenue",
]


@dataclass(frozen=True)
class BidProfile:
    """Reported messages of the two bidders, each in [0, 1]."""

    s1: float
    s2: float


@dataclass(frozen=True)
class Outcome:
    """Allocation probabilities and payments for one bid profile."""

    q1: float
    q2: float
    t1: float
    t2: float


@dataclass(frozen=True)
class RevenueReport:
    """An expected-revenue estimate with its method tag and error bar."""

    method: str
    value: float
    std_error: float
    n_samples: int
    seed: int
    mu: float
    a: float


def winner_payment(c: SolvedConstants, s_hi, s_lo):
    """Payment of a winner bidding ``s_hi`` against ``s_lo <= s_hi``.

    s_hi H(s_hi) - (K(s_hi) - K(s_lo)), with K the closed-form antiderivative
    of H.  Scalars or arrays; the arguments broadcast against each other.
    """
    return s_hi * reserve_cdf(c, s_hi) - (
        reserve_cdf_integral(c, s_hi) - reserve_cdf_integral(c, s_lo)
    )


def outcome(c: SolvedConstants, bids: BidProfile) -> Outcome:
    """Allocation and payments at a reported bid profile.

    The winner pays ``winner_payment``; a tie splits H(x) and x H(x).
    """
    s1, s2 = bids.s1, bids.s2
    if not (0.0 <= s1 <= 1.0 and 0.0 <= s2 <= 1.0):
        raise DomainError(f"bids must lie in [0, 1], got ({s1}, {s2})")
    if s1 == s2:
        h = reserve_cdf(c, s1)
        return Outcome(q1=h / 2.0, q2=h / 2.0, t1=s1 * h / 2.0, t2=s1 * h / 2.0)
    hi, lo = (s1, s2) if s1 > s2 else (s2, s1)
    h = reserve_cdf(c, hi)
    paid = winner_payment(c, hi, lo)
    if s1 > s2:
        return Outcome(q1=h, q2=0.0, t1=paid, t2=0.0)
    return Outcome(q1=0.0, q2=h, t1=0.0, t2=paid)


def uniform_pairs(seed: int, start: int, count: int) -> np.ndarray:
    """Counter-based uniform draws: pair ``i`` always consumes Philox stream
    words 2i and 2i+1 under key ``seed``, so any partition of [0, n) into
    ranges reproduces the exact same values.

    Philox emits four 64-bit words per counter value; the requested word
    range is mapped to its counter block and sliced.  ``Generator.random``
    turns each word into the double (w >> 11) * 2**-53.  The seed must lie
    in [0, 2**128), the Philox key range.
    """
    if not 0 <= seed < 2**128:
        raise DomainError(f"seed must lie in [0, 2**128), got {seed}")
    first_word = 2 * start
    block, offset = divmod(first_word, 4)
    n_words = 2 * count + offset
    gen = np.random.Generator(np.random.Philox(key=seed, counter=[block, 0, 0, 0]))
    return gen.random(n_words)[offset:].reshape(count, 2)


def _tail_weighted_levels(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels u and weights for ``words`` in [0, 1): the even defensive mixture
    (Hesterberg, Technometrics 37(2), 1995) of u = 2w and a log-uniform
    1 - u = eps**(2w - 1) on (eps, 1].  The weight, below 2, is the reciprocal
    of the mixture density 1/2 + 1/(2 (1 - u) ln(1/eps)) of 1 - u."""
    upper = words >= 0.5
    v = np.where(upper, np.exp(-_TAIL_LOG_SPAN * (2.0 * words - 1.0)), 1.0 - 2.0 * words)
    return np.where(upper, 1.0 - v, 2.0 * words), 1.0 / (0.5 + 0.5 / (_TAIL_LOG_SPAN * v))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has
    one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _merge_moments(parts) -> tuple[float, float]:
    """Mean and sum of squared deviations of the (k, mean, M2) chunk triples,
    folded one at a time, in the order given, by the Chan-Golub-LeVeque
    update."""
    count, mean, m2 = 0, 0.0, 0.0
    for k, chunk_mean, chunk_m2 in parts:
        merged = count + k
        delta = chunk_mean - mean
        mean += delta * (k / merged)
        m2 += chunk_m2 + delta * delta * (count * k / merged)
        count = merged
    return mean, m2


def mc_revenue(
    c: SolvedConstants,
    signal: PiecewiseCdf,
    n_samples: int,
    seed: int,
    tail_weighted: bool = False,
) -> RevenueReport:
    """Monte Carlo expected revenue under truthful play and the given signal CDF.

    Signal pairs are drawn by inverse transform from the signal's quantile
    function.  The per-profile total payment uses the order statistics
    directly -- t1 + t2 = ``winner_payment(s(1), s(2))`` -- which agrees with
    ``outcome`` branch by branch, ties included.

    The sample range is walked in chunks of ``_MC_CHUNK`` pairs: each chunk
    draws ``uniform_pairs(seed, start, k)``, maps it through the quantile,
    and reduces its payments to (k, mean, sum of squared deviations).  The
    chunk triples are merged one at a time by the Chan-Golub-LeVeque update

        mean += d k / n,   M2 += M2_chunk + d^2 n_old k / n,

    with d the chunk mean minus the running mean and n the merged count,
    which keeps the standard error as accurate as a two-pass sum.  Memory
    therefore stays at one chunk per worker thread whatever ``n_samples`` is.
    Because the chunk size is fixed and the triples are merged in chunk
    order, the output is bitwise reproducible from ``(seed, n_samples)``,
    whichever thread computed each chunk.  Within a chunk the kernels run on
    row slices of ``_MC_SLICE``; the mean and M2 still reduce the whole
    chunk.  The payments enter the sums multiplied by the power of two that
    brings the top bid into [1/2, 1), so their squared deviations do not
    underflow however small mu is; a power of two changes no bit of a result
    that did not underflow.

    ``tail_weighted`` takes the levels from ``_tail_weighted_levels`` and
    weights each pair by its two weights: the same mean, with a standard
    error of 0.4-0.6% of the revenue at 1e5 samples for every mu, because
    about (1 - ln(1/a) / ln 2**53) / 2 of the levels land on the atom at 1.
    """
    if not 1 <= n_samples <= MAX_SIZE:
        raise DomainError(f"n_samples must be in [1, {MAX_SIZE}], got {n_samples}")
    # No level exceeds 1 - 2**-53, so no payment exceeds this top bid.
    top = float(signal.quantile(1.0 - 2.0**-53))
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    starts = range(0, n_samples, _MC_CHUNK)

    def chunk(start: int) -> tuple[int, float, float]:
        k = min(_MC_CHUNK, n_samples - start)
        u = uniform_pairs(seed, start, k)
        totals = np.empty(k)
        for lo in range(0, k, _MC_SLICE):
            level, weight = u[lo : lo + _MC_SLICE], scale
            if tail_weighted:
                level, w = _tail_weighted_levels(level)
                weight = w[:, 0] * w[:, 1] * scale
            s = signal.quantile(level)
            s_hi = np.maximum(s[:, 0], s[:, 1])
            s_lo = np.minimum(s[:, 0], s[:, 1])
            totals[lo : lo + _MC_SLICE] = winner_payment(c, s_hi, s_lo) * weight
        chunk_mean = float(np.mean(totals))
        return k, chunk_mean, float(np.sum(np.square(totals - chunk_mean)))

    workers = min(_usable_cpus(), len(starts) // _MC_CHUNKS_PER_WORKER)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            mean, m2 = _merge_moments(pool.map(chunk, starts))
    else:
        mean, m2 = _merge_moments(map(chunk, starts))
    if n_samples > 1:
        std_error = math.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples) / scale
    else:
        std_error = float("nan")
    return RevenueReport(
        method="monte-carlo-tail-weighted" if tail_weighted else "monte-carlo",
        value=mean / scale,
        std_error=std_error,
        n_samples=n_samples,
        seed=seed,
        mu=c.mu,
        a=c.a,
    )


def dominated_equilibrium_revenue(c: SolvedConstants) -> float:
    """Revenue of the no-signal equilibrium in which one bidder reports the
    mean and the other reports zero: mu*H(mu) - integral of H over [0, mu].

    Always below the guaranteed revenue; the gap is what ruling out dominated
    play buys the seller.
    """
    return winner_payment(c, c.mu, 0.0)
