"""Client sampling: which clients participate in each round."""

from __future__ import annotations

from typing import List, Sequence

from .client import ClientData, derive_rng

__all__ = ["RandomSampler", "RoundRobinSampler"]

# Domain-separation tag for the participant-sampling stream.  Algorithms
# already consume derive_rng(seed, small_int) streams (e.g. the SSL
# template init uses (seed, 0)), so sampling must not share their
# coordinates: a collision would correlate participant selection with
# model-init noise under the same config.seed.
_PARTICIPANT_STREAM = 715_517


class RandomSampler:
    """Uniformly sample ``count`` distinct clients each round (the paper's
    protocol: 10 of 100 clients per round).

    The participant set is a pure function of ``(seed, round_index)`` —
    the determinism contract of :mod:`repro.fl.execution` — so sampling
    round 5 before round 3, or sampling the same round twice, always
    yields the same participants.  (A stateful generator advanced per
    call would make participant sets depend on call order instead.)
    """

    def __init__(self, count: int, seed: int = 0):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.count = count
        self.seed = seed

    def sample(self, clients: Sequence[ClientData], round_index: int) -> List[ClientData]:
        """``count`` clients, in ascending list position."""
        if self.count > len(clients):
            raise ValueError(
                f"cannot sample {self.count} of {len(clients)} clients")
        rng = derive_rng(self.seed, _PARTICIPANT_STREAM, round_index)
        chosen = rng.choice(len(clients), size=self.count, replace=False)
        return [clients[i] for i in sorted(chosen)]


class RoundRobinSampler:
    """Deterministic rotation — useful in tests where coverage matters."""

    def __init__(self, count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        self.count = count

    def sample(self, clients: Sequence[ClientData], round_index: int) -> List[ClientData]:
        n = len(clients)
        if n == 0:
            return []
        start = (round_index * self.count) % n
        return [clients[(start + offset) % n]
                for offset in range(min(self.count, n))]
