"""Exact waterfilling for parallel Gaussian channels under a sum-power budget.

Each channel i has a positive noise variance N_i. Spending power P_i on it
yields log(1 + P_i / N_i) nats, and a total budget P is split across the
channels to maximize the summed rate. The optimum funds channels up to a
common water level: P_i = (level - N_i)^+ with the level fixed by
sum_i (level - N_i)^+ = P.

The solver is the exact sort-and-scan form, not an iterative search. Sort
noises ascending and, for k = |S| down to 1, test the level implied by
funding the k quietest channels, level_k = (P + N_1 + ... + N_k) / k; the
first k whose level sits strictly above N_k is the answer. A channel whose
noise ties the water level exactly gets zero power. All rates are natural
log (nats).
"""

import math
from dataclasses import dataclass
from itertools import accumulate

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

    Channels carry distinct hashable ids (0..len-1 unless given) so that
    subsets can be addressed when the optimal rate is used as a set
    function. Instances are treated as immutable after construction.
    """

    __slots__ = ("noises", "budget", "ids", "_noise_by_id")

    def __init__(self, noises, budget, ids=None):
        self.noises = tuple(float(x) for x in noises)
        for x in self.noises:
            if not math.isfinite(x) or x <= 0.0:
                raise ValueError(f"noise variances must be positive and finite, got {x}")
        self.budget = float(budget)
        if not (math.isfinite(self.budget) and self.budget >= 0.0):
            raise ValueError(f"power budget must be finite and nonnegative, got {budget}")
        if self.noises:
            # every subset's level is at most budget + its noisiest channel
            noisiest = max(self.noises)
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

    def subset(self, channels):
        """Profile restricted to ``channels``, same budget, original order."""
        keep = frozenset(channels)
        unknown = keep - set(self.ids)
        if unknown:
            raise ValueError(f"unknown channel ids: {sorted(unknown, key=repr)}")
        ids = tuple(c for c in self.ids if c in keep)
        return NoiseProfile((self._noise_by_id[c] for c in ids), self.budget, ids)


@dataclass(frozen=True)
class WaterfillSolution:
    """Optimal allocation for one profile.

    ``water_level`` is None for an empty channel set or a zero budget, where
    the rate is 0 and nothing is funded. ``powers`` maps every channel id to
    its allotted power; ``active_set`` holds exactly the ids with positive
    power.
    """

    water_level: float | None
    powers: dict
    active_set: frozenset
    rate: float


_SHRINK = 2.0 ** -64  # exact power-of-two scale for sums that overflow


def _scan(sorted_noises, budget):
    """(level, k, rate) for ascending noises and budget > 0: the water level,
    the number of funded channels, and their summed rate in nats.

    Requires finite noises and a finite budget + sorted_noises[-1], so that
    every level is representable. ``NoiseProfile`` checks that sum; a unit
    budget cannot overflow it, as 1 plus any finite float rounds to at most
    the largest float. A sum that overflows is taken again at an exact
    power-of-two scale; the noises it then drops below the subnormal range
    are far below its resolution.
    """
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
        # Budget below the float resolution of the quietest noise floor; fund
        # that single channel (its power rounds to zero).
        level, k = budget + sorted_noises[0], 1
    rate = sum(math.log(level / x) for x in sorted_noises[:k])
    if rate == math.inf:  # level / x overflowed for a subnormal noise x
        rate = sum(math.log(level) - math.log(x) for x in sorted_noises[:k])
    return level, k, rate


def water_level(profile):
    """Common level at which the budget exactly fills the funded channels.

    Raises ValueError on an empty channel set or a zero budget, where
    ``waterfill`` reports no level and callers take rate 0 directly.
    """
    level = waterfill(profile).water_level
    if level is None:
        raise ValueError("empty set or zero budget: no water level exists")
    return level


def waterfill(profile):
    """Solve one profile: water level, per-channel powers, active set, rate."""
    ids = profile.ids
    if not ids or profile.budget == 0.0:
        return WaterfillSolution(None, {c: 0.0 for c in ids}, frozenset(), 0.0)
    order = sorted(range(len(ids)), key=lambda t: profile.noises[t])
    level, k, rate = _scan([profile.noises[t] for t in order], profile.budget)
    powers = {c: 0.0 for c in ids}
    for t in order[:k]:
        powers[ids[t]] = level - profile.noises[t]
    # a budget below the resolution of the quietest noise funds it with power 0
    return WaterfillSolution(level, powers, frozenset(c for c, p in powers.items() if p > 0.0), rate)


def rate_of_subset(profile, channels):
    """Optimal rate when only ``channels`` of the profile may be used.

    The monotone set function the submodularity checks exercise, solved from
    the profile's validated noises. Unknown channel ids raise ValueError.
    """
    noises = sorted(profile.noise_of(c) for c in frozenset(channels))
    if not noises or profile.budget == 0.0:
        return 0.0
    return _scan(noises, profile.budget)[2]


def log_utility(snrs):
    """Best sum rate from splitting one basestation's unit transmit power
    across receivers with the given SNRs.

    A receiver with SNR w behaves like a channel with noise 1/w. Receivers
    whose noise is infinite (zero SNR, or one so small that 1/w overflows)
    can never be funded and are excluded before solving.
    """
    noises = []
    for w in snrs:
        w = float(w)
        if not math.isfinite(w) or w < 0.0:
            raise ValueError(f"SNRs must be nonnegative and finite, got {w}")
        if w > 0.0:
            noises.append(1.0 / w)
    noises.sort()
    while noises and noises[-1] == math.inf:
        noises.pop()
    if not noises:
        return 0.0
    return _scan(noises, 1.0)[2]
