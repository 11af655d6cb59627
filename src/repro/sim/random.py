"""Named, independently seeded random streams for reproducible simulation.

Different model components (arrival process, service times, placement
jitter, ...) each draw from their own stream so adding draws to one
component never perturbs another — a standard variance-reduction and
reproducibility technique in discrete-event simulation.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from ..errors import ConfigurationError


def split_seed(master_seed: int, key: str) -> int:
    """Derive a stable 64-bit child seed from a master seed and a key.

    This is the library's single seed-splitting primitive: named
    simulation streams use it with the stream name, and the sweep engine
    uses it with the task key, so a sweep point's seed depends only on
    ``(master_seed, task_key)`` — never on execution order or worker
    count. Parallel and serial runs therefore draw identical variates.

    The derivation is defined over non-negative master seeds only;
    anything else is a caller bug and fails loudly here rather than
    producing a quietly different variate sequence.
    """
    if master_seed < 0:
        raise ConfigurationError(
            f"master seed must be non-negative, got {master_seed}"
        )
    digest = hashlib.sha256(f"{master_seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


#: Variates drawn per numpy call. Simulations draw millions of scalar
#: variates; batching amortizes the numpy call overhead ~50x.
_BATCH_SIZE = 8192


class RandomStreams:
    """A registry of named :class:`numpy.random.Generator` streams.

    Scalar draws are served from per-stream batches of *standard*
    variates (unit exponential / standard normal) scaled at use, so a
    stream's sequence stays deterministic even when the requested mean
    or CV changes between draws.
    """

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = master_seed
        self._streams: dict[str, np.random.Generator] = {}
        self._exp_buffers: dict[str, tuple[np.ndarray, int]] = {}
        self._normal_buffers: dict[str, tuple[np.ndarray, int]] = {}
        #: ``(mu, sigma)`` of the underlying normal per ``(mean, cv)``.
        self._lognormal_params: dict[tuple[float, float], tuple[float, float]] = {}

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def get(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(split_seed(self._master_seed, name))
        return self._streams[name]

    def _standard_exponential(self, name: str) -> float:
        entry = self._exp_buffers.get(name)
        if entry is None or entry[1] >= _BATCH_SIZE:
            entry = (self.get(name).standard_exponential(_BATCH_SIZE), 0)
        buffer, index = entry
        self._exp_buffers[name] = (buffer, index + 1)
        return buffer.item(index)

    def _standard_normal(self, name: str) -> float:
        entry = self._normal_buffers.get(name)
        if entry is None or entry[1] >= _BATCH_SIZE:
            entry = (self.get(name).standard_normal(_BATCH_SIZE), 0)
        buffer, index = entry
        self._normal_buffers[name] = (buffer, index + 1)
        return buffer.item(index)

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential variate with the given mean."""
        return self._standard_exponential(name) * mean

    def lognormal(self, name: str, mean: float, cv: float) -> float:
        """Draw a lognormal variate with target mean and coefficient of variation.

        ``cv`` is the ratio of the standard deviation to the mean; the
        underlying normal parameters are solved so the *arithmetic* mean
        and CV match the request.
        """
        params = self._lognormal_params.get((mean, cv))
        if params is None:
            if mean <= 0:
                raise ValueError("lognormal mean must be positive")
            if cv < 0:
                raise ValueError("lognormal cv must be non-negative")
            if cv == 0:
                return mean
            sigma2 = math.log(1.0 + cv * cv)
            mu = math.log(mean) - sigma2 / 2.0
            params = self._lognormal_params[mean, cv] = (mu, math.sqrt(sigma2))
        mu, sigma = params
        return math.exp(mu + sigma * self._standard_normal(name))

    def uniform(self, name: str, low: float, high: float) -> float:
        """Draw a uniform variate in ``[low, high)``."""
        return float(self.get(name).uniform(low, high))


__all__ = ["RandomStreams", "split_seed"]
