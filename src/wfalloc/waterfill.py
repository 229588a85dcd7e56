"""Exact waterfilling for parallel Gaussian channels under a sum-power budget.

Each channel i has a positive noise variance N_i (infinite for a channel
that is never funded). Spending power P_i on it yields log(1 + P_i / N_i)
nats, and a total budget P is split across the channels to maximize the
summed rate. The optimum funds channels up to a common water level:
P_i = (level - N_i)^+ with the level fixed by sum_i (level - N_i)^+ = P.

The solver is the exact sort-and-scan form, not an iterative search. Sort
noises ascending and, for k = |S| down to 1, test the level implied by
funding the k quietest channels, level_k = (P + N_1 + ... + N_k) / k; the
first k whose level sits strictly above N_k is the answer. A channel whose
noise ties the water level exactly gets zero power. All rates are natural
log (nats).
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

import numpy as np

__all__ = [
    "NoiseProfile",
    "WaterfillSolution",
    "water_level",
    "waterfill",
    "rate_of_subset",
    "log_utility",
]


class NoiseProfile:
    """Positive noise variances for a set of channels plus a power budget.

    A noise of ``inf`` is a channel that waterfilling never funds, such as
    an SNR of zero (noise 1/w); a set of only such channels has no water
    level. Channels carry distinct hashable ids (0..len-1 unless given) so
    that subsets can be addressed when the optimal rate is used as a set
    function. Instances are treated as immutable after construction.
    """

    __slots__ = ("noises", "budget", "ids", "_noise_by_id")

    def __init__(self, noises, budget, ids=None):
        self.noises = tuple(float(x) for x in noises)
        for x in self.noises:
            if not x > 0.0:  # NaN, 0, negatives and -inf
                raise ValueError(f"noise variances must be positive, inf for a channel never funded, "
                                 f"got {x}")
        self.budget = float(budget) + 0.0  # -0.0 + 0.0 is 0.0, so a -0.0 budget prints as 0
        if not (math.isfinite(self.budget) and self.budget >= 0.0):
            raise ValueError(f"power budget must be finite and nonnegative, got {budget}")
        # every subset's level is at most budget + its noisiest funded channel
        noisiest = max((x for x in self.noises if x < math.inf), default=0.0)
        if self.budget + noisiest == math.inf:
            raise ValueError(f"water level overflows: budget {self.budget} plus noise {noisiest}")
        self.ids = tuple(range(len(self.noises))) if ids is None else tuple(ids)
        if len(self.ids) != len(self.noises):
            raise ValueError("need exactly one channel id per noise variance")
        self._noise_by_id = dict(zip(self.ids, self.noises))
        if len(self._noise_by_id) != len(self.ids):
            raise ValueError("channel ids must be distinct")

    def __len__(self):
        return len(self.noises)

    def __repr__(self):
        return f"NoiseProfile(noises={self.noises!r}, budget={self.budget!r}, ids={self.ids!r})"

    def __eq__(self, other):
        if not isinstance(other, NoiseProfile):
            return NotImplemented
        return (self.noises, self.budget, self.ids) == (other.noises, other.budget, other.ids)

    def noise_of(self, channel):
        try:
            return self._noise_by_id[channel]
        except KeyError:
            raise ValueError(f"unknown channel id: {channel!r}") from None

    def _known(self, channels):
        """``channels`` in the profile's order; unknown ids raise ValueError."""
        keep = frozenset(channels)
        unknown = keep - set(self.ids)
        if unknown:
            raise ValueError(f"unknown channel ids: {sorted(unknown, key=repr)}")
        return tuple(c for c in self.ids if c in keep)

    def subset(self, channels):
        """Profile restricted to ``channels``, same budget, original order."""
        ids = self._known(channels)
        return NoiseProfile((self._noise_by_id[c] for c in ids), self.budget, ids)


@dataclass(frozen=True)
class WaterfillSolution:
    """Optimal allocation for one profile.

    ``water_level`` is None for an empty channel set, a zero budget or a
    set of never-funded (infinite-noise) channels, where the rate is 0 and
    nothing is funded. ``powers`` maps every channel id to its allotted
    power; ``active_set`` holds exactly the ids with positive power.
    """

    water_level: float | None
    powers: dict
    active_set: frozenset
    rate: float


_SHRINK = 2.0 ** -64  # exact power-of-two scale for sums that overflow


def _scan(sorted_noises, budget):
    """(level, k, rate) for ascending noises and a budget >= 0: the water
    level, the number of funded channels, and their summed rate in nats.

    The contract of both kernels: infinite noises sort last and are never
    funded (a level over one is inf, and inf > inf is false); no noises,
    only infinite ones, or a zero budget fund nothing: (None, 0, 0.0).
    Requires a finite budget + the noisiest finite noise, so that every
    level is representable. ``NoiseProfile`` checks that sum; a unit
    budget cannot overflow it, as 1 plus any finite float rounds to at most
    the largest float. A sum that overflows is taken again at an exact
    power-of-two scale; the noises it then drops below the subnormal range
    are far below its resolution. The funded channels' logs add left to
    right, one ``+=`` each: the rule ``_subset_rates`` repeats by columns
    with ``np.add.accumulate``.
    """
    if budget == 0.0:
        return None, 0, 0.0
    prefix = tuple(accumulate(sorted_noises))
    shrunk = None
    for k in range(len(sorted_noises), 0, -1):
        level = (budget + prefix[k - 1]) / k
        if level > sorted_noises[k - 1]:
            if level < math.inf:
                break
            if shrunk is None:
                shrunk = tuple(accumulate(x * _SHRINK for x in sorted_noises))
            level = (budget * _SHRINK + shrunk[k - 1]) / k / _SHRINK
            if level > sorted_noises[k - 1]:
                break
    else:
        if not sorted_noises or sorted_noises[0] == math.inf:
            return None, 0, 0.0
        # Budget below the float resolution of the quietest noise floor; fund
        # that single channel (its power rounds to zero).
        level, k = budget + sorted_noises[0], 1
    rate = 0.0
    for x in sorted_noises[:k]:
        rate += math.log(level / x)
    if rate == math.inf:  # level / x overflowed for a subnormal noise x
        rate = 0.0
        for x in sorted_noises[:k]:
            rate += math.log(level) - math.log(x)
    return level, k, rate


# entries per numpy block, here, in the checkers and in the subset DP: 8,192
# float64 are 64 KiB, below glibc's 128 KiB mmap threshold, so none is mmapped fresh
_BLOCK = 1 << 13


@cache
def _mask_sizes_and_tops(n):
    """Each n-bit mask's size and highest bit (0 for the empty mask), as two
    read-only 1-D arrays of 2^n entries, built by doubling and cached per n.
    Nothing of shape 2^n x n is cached: brute force asks for n up to 19 at
    m = 2, where the two arrays take 8 MB together."""
    sizes, tops = np.zeros(1 << n, np.intp), np.zeros(1 << n, np.intp)
    for h in range(n):
        np.add(sizes[:1 << h], 1, out=sizes[1 << h:2 << h])
        tops[1 << h:2 << h] = h
    sizes.setflags(write=False)
    tops.setflags(write=False)
    return sizes, tops


def _subset_rates(sorted_noises, budget):
    """``_scan``'s rate of every subset of each row of a rows x n matrix of
    ascending noises, by bitmask: bit i is column i.

    Each row is held to ``_scan``'s contract: an infinite noise, sorted
    last, is never funded, and the empty subset or a zero budget gives 0.
    A subset is its parent plus its noisiest member x, its highest bit.
    Passes over all rows at once, with each mask's size and highest bit
    from ``_mask_sizes_and_tops``:

    * noise totals by doubling, one bit at a time: a subset's total is its
      parent's plus x, the float ``_scan``'s prefix sum reaches, so the
      level (budget + total) / |S| is ``_scan``'s first test, k = |S|;
    * the funded test, level above x, as one gather of each subset's x and
      one compare. A subset that fails it (an infinite x always does)
      takes its parent's rate, as ``_scan`` goes on with the parent's
      tests; one copy pass per bit, parents first. The empty subset's level
      budget / 0 passes it, and is marked unfunded: its rate stays 0;
    * the funded subsets' rates, in blocks of ``_BLOCK`` log entries:
      level / y in numpy, ``math.log`` of each (np.log need not agree to
      the last bit) into a zero subsets x n matrix at the member columns,
      whose rows ``np.add.accumulate`` sums left to right, one add per
      column: adding 0.0 is exact, so each total is ``_scan``'s sum bit for
      bit. An infinite rate, from an infinite level or a level / y that
      overflows, is handed to ``_scan`` itself, whose overflow, subnormal
      and fallback branches stay the only ones.

    The call makes 2n numpy passes that grow with n (the totals and the
    copies) and a fixed number besides, per block. Its member matrices are
    built per block, so none outgrows ``_BLOCK`` entries.
    """
    rows, n = sorted_noises.shape
    if budget == 0.0 or n == 0:
        return np.zeros((rows, 1 << n))
    sizes, tops = _mask_sizes_and_tops(n)
    levels = np.zeros((rows, 1 << n))  # noise totals, then levels
    rates = np.zeros((rows, 1 << n))
    # an overflowing total or ratio goes to _scan; the empty subset's level is budget / 0
    with np.errstate(over="ignore", divide="ignore"):
        for h in range(n):
            np.add(levels[:, :1 << h], sorted_noises[:, h:h + 1], out=levels[:, 1 << h:2 << h])
        levels += budget
        levels /= sizes
        unfunded = levels <= sorted_noises[:, tops]
        unfunded[:, 0] = True
        funded, step, bits = np.flatnonzero(~unfunded), _BLOCK // n, 1 << np.arange(n)
        for start in range(0, len(funded), step):
            at = funded[start:start + step]
            row, mask = at >> n, at & ((1 << n) - 1)
            members = (mask[:, None] & bits) != 0
            ratios = np.repeat(levels.flat[at], sizes[mask]) / sorted_noises[row][members]
            logs = np.zeros(members.shape)  # a non-member adds an exact 0.0
            logs[members] = np.fromiter(map(math.log, ratios.tolist()), float, len(ratios))
            total = np.add.accumulate(logs, axis=1)[:, -1]
            rates.flat[at] = total
            for i in np.flatnonzero(total == math.inf):
                rates.flat[at[i]] = _scan(sorted_noises[row[i]][members[i]].tolist(), budget)[2]
    for h in range(n):
        np.copyto(rates[:, 1 << h:2 << h], rates[:, :1 << h], where=unfunded[:, 1 << h:2 << h])
    return rates


def _subset_tables(noises, budget):
    """``_scan``'s rate of every subset of each row of a rows x n noise
    matrix, by column bitmask. One ``_subset_rates`` call solves the
    row-sorted matrix, and one permutation for all rows maps column
    bitmasks to sorted ones (tied noises are equal floats, so their order
    changes no rate)."""
    noises = np.asarray(noises, dtype=float)
    rows, n = noises.shape
    rates = _subset_rates(np.sort(noises, axis=1), budget)
    bits = 1 << np.argsort(noises, axis=1, kind="stable").argsort(axis=1)  # each column's sorted bit
    index = np.zeros((rows, 1 << n), np.intp)
    index[:, 0] = np.arange(rows) << n  # row r's start, clear of every sorted bit
    for t in range(n):
        np.bitwise_or(index[:, :1 << t], bits[:, t:t + 1], out=index[:, 1 << t:2 << t])
    return rates.ravel()[index]


def water_level(profile):
    """Common level at which the budget exactly fills the funded channels.

    Raises ValueError on an empty channel set, a zero budget or a set of
    never-funded (infinite-noise) channels, where ``waterfill`` reports no
    level and callers take rate 0 directly.
    """
    level = waterfill(profile).water_level
    if level is None:
        raise ValueError("empty set, zero budget or never-funded channels: no water level exists")
    return level


def waterfill(profile):
    """Solve one profile: water level, per-channel powers, active set, rate.

    The channels are ranked by noise with a stable sort, so tied noises
    keep profile order, and ``powers`` lists them in profile order."""
    noise_by_id = profile._noise_by_id
    level, funded, active, rate = _fill(sorted(profile.ids, key=noise_by_id.__getitem__),
                                        noise_by_id, profile.budget)
    powers = dict.fromkeys(profile.ids, 0.0)
    powers.update(funded)
    return WaterfillSolution(level, powers, active, rate)


def _fill(ranked, noise_by_id, budget):
    """``_scan`` of the channel ids ``ranked``, in ascending noise order:
    (level, funded, active, rate), with ``funded`` the (id, power) pairs of
    the channels it funds and ``active`` those of positive power. A budget
    below the resolution of the quietest noise funds it with power 0, so
    it is funded but not active."""
    noises = [noise_by_id[c] for c in ranked]
    level, k, rate = _scan(noises, budget)
    funded = [(c, level - x) for c, x in zip(ranked[:k], noises)]
    return level, funded, frozenset(c for c, p in funded if p > 0.0), rate


def rate_of_subset(profile, channels):
    """Optimal rate when only ``channels`` of the profile may be used.

    The monotone set function the submodularity checks exercise, solved from
    the profile's validated noises. Unknown channel ids raise ValueError.
    """
    return _scan(sorted(profile.noise_of(c) for c in frozenset(channels)), profile.budget)[2]


def _check_snrs(snrs):
    """``snrs`` as a float array, checked once: the one SNR check. Raises
    ValueError on the first SNR, in row-major order, that is not finite or,
    failing that, is negative; -0.0 passes, as a zero SNR."""
    snrs = np.asarray(snrs, dtype=float)
    valid = (snrs >= 0.0) & (snrs < math.inf)  # false for NaN
    if not valid.all():
        w = float(snrs.flat[valid.argmin()])
        raise ValueError(f"SNRs must be {'nonnegative' if math.isfinite(w) else 'finite'}, got {w}")
    return snrs


def _snr_noise_array(snrs):
    """The SNR rule, for SNRs ``_check_snrs`` passed: noise 1/w for SNR w,
    infinite (never funded) for a zero SNR or a 1/w that overflows, element
    for element and with no checks. Adding 0.0 turns -0.0, whose 1/w is
    -inf, into 0.0 and leaves every other SNR as it is."""
    with np.errstate(divide="ignore", over="ignore"):
        return 1.0 / (snrs + 0.0)


def log_utility(snrs):
    """Best sum rate from splitting one basestation's unit transmit power
    across receivers with the given SNRs.

    A receiver with SNR w behaves like a channel with noise 1/w. ``snrs``
    may be any iterable; ``_check_snrs`` checks it, ``_snr_noise_array``
    maps it, and ``_scan`` never funds the infinite noises of zero SNRs.
    """
    noises = _snr_noise_array(_check_snrs(np.fromiter(snrs, float)))
    return _scan(sorted(noises.tolist()), 1.0)[2]


@contextmanager
def _sink(dest):
    """The one path-or-stream rule of the three CSV writers, kept in this
    module, which each of theirs imports with no cycle: a stream is written
    as given and left open, and a path is opened for writing as UTF-8 with
    no newline translation."""
    if hasattr(dest, "write"):
        yield dest
    else:
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            yield fh
