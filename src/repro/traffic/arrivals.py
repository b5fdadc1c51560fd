"""Seeded stochastic arrival processes for the fleet simulator.

The paper's sprinting argument is a statement about *traffic*: sprinting
converts idle thermal headroom into burst responsiveness, so its value
depends entirely on how requests arrive.  This module provides the arrival
side of that question as a family of processes that all answer the same
query — "give me the first ``n`` absolute arrival times" — deterministically
for a given seed:

* :class:`DeterministicArrivals` — the periodic stream of
  :meth:`repro.core.pacing.SprintPacer.simulate_periodic` (the degenerate
  case a fleet of one must reproduce),
* :class:`PoissonArrivals` — memoryless arrivals at a constant rate,
* :class:`MMPPArrivals` — a two-state Markov-modulated Poisson process; its
  :meth:`MMPPArrivals.bursty` constructor gives the classic on-off source
  (bursts of traffic separated by silent periods),
* :class:`DiurnalArrivals` — a non-homogeneous Poisson process whose rate
  follows a sinusoidal day/night cycle (generated by thinning),
* :class:`TraceArrivals` — replay of an arbitrary inter-arrival array (e.g.
  measured traffic), cycled if the trace is shorter than the request count.

Every process is a frozen dataclass, safe to share across worker processes,
and samples exclusively from the :class:`numpy.random.Generator` handed to
it, so identical seeds give identical request streams on every platform.

Usage — every process answers the same query, deterministically per seed:

>>> from repro.traffic.arrivals import DeterministicArrivals, PoissonArrivals
>>> DeterministicArrivals(interarrival_s=2.0).times(4).tolist()
[0.0, 2.0, 4.0, 6.0]
>>> times = PoissonArrivals(rate_hz=0.5).times(100, seed=42)
>>> len(times), bool((times[1:] >= times[:-1]).all())
(100, True)
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


def seed_stream(*words: int) -> np.random.SeedSequence:
    """Canonical named child stream of the traffic stack's seed universe.

    Every seeded draw in :mod:`repro.traffic` — arrival times, service
    demands, dispatch randomness, replication streams — derives from a
    :class:`numpy.random.SeedSequence` built from a tuple of integer words:
    a base seed followed by domain tags and indices (e.g. ``(base_seed,
    domain, replication)``).  Building them through this one helper keeps
    the derivation rule in a single place, so two components that must
    consume *identical* draws (common-random-numbers pairing in
    :mod:`repro.traffic.experiments`) agree by construction, and two that
    must be independent differ in at least one word.

    The scheme is platform-independent and stable across process
    boundaries: equal words always give equal streams.
    """
    if not words:
        raise ValueError("a seed stream needs at least one word")
    return np.random.SeedSequence(list(words))


def _check_count(n: int) -> None:
    if n < 1:
        raise ValueError("at least one arrival must be requested")


#: Default block length for :meth:`ArrivalProcess.sample_blocks` (and the
#: request-block generator built on it).  Large enough that per-chunk numpy
#: dispatch overhead is negligible, small enough that a chunk stays cache- and
#: memory-friendly at million-request horizons.
DEFAULT_CHUNK = 65_536

#: Internal generation granularity.  Producers draw RNG blocks of this size
#: regardless of the caller's ``chunk_size``, so the emitted *values* never
#: depend on how the stream is re-sliced for delivery.
_PIECE = 65_536

#: Burst shape of :meth:`MMPPArrivals.bursty_at_rate`: bursts run at this
#: multiple of the mean rate ...
BURST_FACTOR = 5.0
#: ... and carry this many requests on average.
BURST_MEAN_REQUESTS = 10.0


def _check_chunk(chunk_size: int) -> None:
    if chunk_size < 1:
        raise ValueError("chunk size must be positive")


def _rechunk(pieces, chunk_size):
    """Re-slice a stream of arrays into ``chunk_size`` blocks, values unchanged."""
    pending: list[np.ndarray] = []
    held = 0
    for piece in pieces:
        if piece.size == 0:
            continue
        pending.append(piece)
        held += piece.size
        while held >= chunk_size:
            buf = np.concatenate(pending) if len(pending) > 1 else pending[0]
            yield buf[:chunk_size]
            buf = buf[chunk_size:]
            pending = [buf] if buf.size else []
            held = buf.size
    if held:
        yield np.concatenate(pending) if len(pending) > 1 else pending[0]


class _ExpBuffer:
    """Sequential reader over block-drawn standard exponentials.

    ``rng.exponential(scale)`` is ``scale * rng.standard_exponential()`` and a
    size-``k`` block draw consumes the underlying bit stream exactly like
    ``k`` scalar draws, so reading this buffer one value (or one slice) at a
    time reproduces a scalar draw loop bit-for-bit while paying the RNG call
    overhead once per block.
    """

    def __init__(self, rng: np.random.Generator, block: int = 8192) -> None:
        self._rng = rng
        self._block = block
        self._buf = np.empty(0)
        self._pos = 0

    def _refill(self) -> None:
        self._buf = self._rng.standard_exponential(self._block)
        self._pos = 0

    def take_one(self) -> float:
        if self._pos >= self._buf.size:
            self._refill()
        value = self._buf[self._pos]
        self._pos += 1
        return float(value)

    def peek(self) -> np.ndarray:
        """Remaining draws in the current block (refilled when exhausted)."""
        if self._pos >= self._buf.size:
            self._refill()
        return self._buf[self._pos :]

    def consume(self, k: int) -> None:
        self._pos += k


class ArrivalProcess(ABC):
    """Common interface: the first ``n`` absolute arrival times, seconds."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` non-decreasing absolute arrival times from ``rng``."""

    def times(self, n: int, seed: int | np.random.SeedSequence = 0) -> np.ndarray:
        """Convenience wrapper: sample with a freshly seeded generator."""
        return self.sample(n, np.random.default_rng(seed))

    def sample_blocks(
        self, n: int, rng: np.random.Generator, chunk_size: int = DEFAULT_CHUNK
    ):
        """Yield the *same* ``n`` arrival times as :meth:`sample`, in chunks.

        The concatenation of the yielded blocks is bit-identical to one
        ``sample(n, rng)`` call with an identically seeded generator, for
        every chunk size — the block-determinism property tests lock this
        for each process.  Streaming callers (``FleetSimulator.run_stream``,
        the batched engine path) use it to keep peak memory at one chunk
        instead of the full horizon.
        """
        _check_count(n)
        _check_chunk(chunk_size)
        return _rechunk(self._sample_pieces(n, rng), chunk_size)

    def _sample_pieces(self, n: int, rng: np.random.Generator):
        """Produce the arrival stream as arrays of implementation-chosen size.

        The base implementation falls back to one :meth:`sample` call (exact,
        but O(n) memory); subclasses override it with carry-chunked block
        generation where the draw structure allows.
        """
        yield self.sample(n, rng)

    def mean_rate_hz(self) -> float:
        """Long-run average arrival rate (for sizing sweeps and reports)."""
        raise NotImplementedError


@dataclass(frozen=True)
class DeterministicArrivals(ArrivalProcess):
    """Periodic arrivals: request ``i`` arrives at ``i * interarrival_s``.

    The first request arrives at time zero, matching
    :meth:`~repro.core.pacing.SprintPacer.simulate_periodic` so a one-device
    fleet under this process reproduces the single-device pacing result.
    """

    interarrival_s: float

    def __post_init__(self) -> None:
        if not 0.0 < self.interarrival_s < math.inf:
            raise ValueError("inter-arrival time must be positive and finite")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_count(n)
        return np.arange(n, dtype=float) * self.interarrival_s

    def _sample_pieces(self, n: int, rng: np.random.Generator):
        for lo in range(0, n, _PIECE):
            hi = min(lo + _PIECE, n)
            yield np.arange(lo, hi, dtype=float) * self.interarrival_s

    def mean_rate_hz(self) -> float:
        return 1.0 / self.interarrival_s


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals at ``rate_hz`` requests per second."""

    rate_hz: float

    def __post_init__(self) -> None:
        if not 0.0 < self.rate_hz < math.inf:
            raise ValueError("arrival rate must be positive and finite")

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_count(n)
        return np.cumsum(rng.exponential(1.0 / self.rate_hz, size=n))

    def _sample_pieces(self, n: int, rng: np.random.Generator):
        # Folding the running total into the first gap of each block keeps
        # np.cumsum's left-to-right accumulation order identical to one
        # whole-stream cumsum, so the chunked times are bit-equal to sample().
        scale = 1.0 / self.rate_hz
        carry = 0.0
        for lo in range(0, n, _PIECE):
            gaps = rng.exponential(scale, size=min(_PIECE, n - lo))
            gaps[0] += carry
            times = np.cumsum(gaps)
            carry = times[-1]
            yield times

    def mean_rate_hz(self) -> float:
        return self.rate_hz


@dataclass(frozen=True)
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process.

    The source alternates between state 0 and state 1; dwell times in each
    state are exponential with the given means, and while in state ``k``
    arrivals form a Poisson process at ``rates_hz[k]`` (zero is allowed and
    turns the state silent).  With one high-rate and one silent state this
    is the on-off burst model of the paper's "bursty, intermittent"
    workloads.
    """

    rates_hz: tuple[float, float]
    mean_dwell_s: tuple[float, float]

    def __post_init__(self) -> None:
        if len(self.rates_hz) != 2 or len(self.mean_dwell_s) != 2:
            raise ValueError("MMPP needs exactly two states")
        if not all(0.0 <= rate < math.inf for rate in self.rates_hz) or (
            max(self.rates_hz) == 0
        ):
            raise ValueError(
                "state rates must be finite and non-negative, at least one positive"
            )
        if not all(0.0 < dwell < math.inf for dwell in self.mean_dwell_s):
            raise ValueError("mean dwell times must be positive and finite")

    @classmethod
    def bursty(
        cls, burst_rate_hz: float, mean_burst_s: float, mean_idle_s: float
    ) -> "MMPPArrivals":
        """The on-off special case: bursts at ``burst_rate_hz``, silent gaps."""
        return cls(rates_hz=(burst_rate_hz, 0.0), mean_dwell_s=(mean_burst_s, mean_idle_s))

    @classmethod
    def bursty_at_rate(cls, mean_rate_hz: float) -> "MMPPArrivals":
        """On-off bursts that preserve a long-run mean rate.

        Bursts run at :data:`BURST_FACTOR` times ``mean_rate_hz``, last
        long enough to carry :data:`BURST_MEAN_REQUESTS` expected requests,
        and occupy ``1 / BURST_FACTOR`` of the time, so sweeping
        ``mean_rate_hz`` moves the load while the burst shape stays put
        (:meth:`bursty` builds any other shape).
        """
        if not 0.0 < mean_rate_hz < math.inf:
            raise ValueError("mean arrival rate must be positive and finite")
        mean_burst_s = BURST_MEAN_REQUESTS / (BURST_FACTOR * mean_rate_hz)
        mean_idle_s = mean_burst_s * (BURST_FACTOR - 1.0)
        return cls.bursty(
            burst_rate_hz=BURST_FACTOR * mean_rate_hz,
            mean_burst_s=mean_burst_s,
            mean_idle_s=mean_idle_s,
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_count(n)
        times = np.empty(n)
        count = 0
        state = 0
        now = 0.0
        while count < n:
            dwell_end = now + rng.exponential(self.mean_dwell_s[state])
            rate = self.rates_hz[state]
            if rate > 0.0:
                t = now
                while count < n:
                    t += rng.exponential(1.0 / rate)
                    if t >= dwell_end:
                        break
                    times[count] = t
                    count += 1
            now = dwell_end
            state = 1 - state
        return times

    def _sample_pieces(self, n: int, rng: np.random.Generator):
        # Same state machine as sample(), but the exponentials come from one
        # block-drawn buffer consumed sequentially: the dwell draw is
        # ``E * mean_dwell`` and each in-state gap is ``E * (1/rate)``, both
        # bit-equal to the scalar rng.exponential calls.  Within a dwell the
        # candidate times come from a cumsum seeded with the running clock
        # (sequential accumulation), and searchsorted finds the first
        # candidate at or past the dwell boundary — exactly the scalar
        # ``t >= dwell_end`` break, whose crossing draw is discarded.
        draws = _ExpBuffer(rng)
        produced = 0
        state = 0
        now = 0.0
        while produced < n:
            dwell_end = now + draws.take_one() * self.mean_dwell_s[state]
            rate = self.rates_hz[state]
            if rate > 0.0:
                scale = 1.0 / rate
                t = now
                while produced < n:
                    gaps = draws.peek() * scale
                    times = np.cumsum(np.concatenate(((t,), gaps)))[1:]
                    cross = int(np.searchsorted(times, dwell_end, side="left"))
                    accept = min(cross, n - produced)
                    if accept:
                        # A copy, not a view: a view would pin the whole
                        # block-sized candidate array until the piece is
                        # emitted, one per dwell.
                        yield times[:accept].copy()
                        produced += accept
                    if cross < times.size:
                        draws.consume(cross + 1)
                        break
                    draws.consume(cross)
                    if produced >= n:
                        break
                    t = times[-1]
            now = dwell_end
            state = 1 - state

    def mean_rate_hz(self) -> float:
        weighted = sum(r * d for r, d in zip(self.rates_hz, self.mean_dwell_s))
        return weighted / sum(self.mean_dwell_s)


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals with a sinusoidal day/night cycle.

    The instantaneous rate is ``base_rate_hz * (1 + amplitude * cos(...))``
    with period ``period_s`` and the peak placed ``peak_at_s`` seconds into
    the cycle (the cosine averages to zero, so ``base_rate_hz`` is also the
    long-run mean rate).  Sampling uses Lewis-Shedler thinning against the
    peak rate, which keeps the draw exact for any amplitude in [0, 1).
    """

    base_rate_hz: float
    amplitude: float = 0.8
    period_s: float = 86_400.0
    peak_at_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.base_rate_hz < math.inf:
            raise ValueError("base arrival rate must be positive and finite")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if not 0.0 < self.period_s < math.inf:
            raise ValueError("period must be positive and finite")
        if not math.isfinite(self.peak_at_s):
            raise ValueError("peak offset must be finite")

    def rate_at(self, time_s: float) -> float:
        """Instantaneous arrival rate at an absolute time."""
        phase = 2.0 * math.pi * (time_s - self.peak_at_s) / self.period_s
        return self.base_rate_hz * (1.0 + self.amplitude * math.cos(phase))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_count(n)
        return np.concatenate(list(self._sample_pieces(n, rng)))

    def _sample_pieces(self, n: int, rng: np.random.Generator):
        # Thinning interleaves a variable number of exponential and uniform
        # draws from one bit stream, so there is no block draw that
        # reproduces it; the scalar candidate loop is kept and only the
        # *emission* is chunked.  The loop binds the generator's methods
        # and the rate constants locally and inlines :meth:`rate_at` with
        # its float operations unchanged: ``standard_exponential() * scale``
        # is ``exponential(scale)`` and ``random()`` is ``uniform()``, draw
        # for draw.
        peak = self.base_rate_hz * (1.0 + self.amplitude)
        scale = 1.0 / peak
        exponential = rng.standard_exponential
        uniform = rng.random
        cos = math.cos
        two_pi = 2.0 * math.pi
        base, amplitude = self.base_rate_hz, self.amplitude
        peak_at, period = self.peak_at_s, self.period_s
        t = 0.0
        produced = 0
        while produced < n:
            size = min(_PIECE, n - produced)
            times: list[float] = []
            append = times.append
            while len(times) < size:
                t += exponential() * scale
                if uniform() * peak <= base * (
                    1.0 + amplitude * cos(two_pi * (t - peak_at) / period)
                ):
                    append(t)
            produced += size
            yield np.array(times)

    def mean_rate_hz(self) -> float:
        return self.base_rate_hz


@dataclass(frozen=True)
class TraceArrivals(ArrivalProcess):
    """Replay measured inter-arrival times (cycled when the trace is short).

    ``interarrivals_s`` is any positive-valued sequence; request ``i`` uses
    entry ``i mod len(trace)`` when ``cycle`` is true, otherwise asking for
    more arrivals than the trace holds raises.
    """

    interarrivals_s: tuple[float, ...]
    cycle: bool = True

    def __post_init__(self) -> None:
        if not self.interarrivals_s:
            raise ValueError("trace must contain at least one inter-arrival time")
        if not all(0.0 <= gap < math.inf for gap in self.interarrivals_s):
            raise ValueError("inter-arrival times must be finite and non-negative")
        if sum(self.interarrivals_s) <= 0:
            raise ValueError("trace must advance time")

    @classmethod
    def from_array(cls, interarrivals_s, cycle: bool = True) -> "TraceArrivals":
        """Build from any array-like of inter-arrival seconds."""
        return cls(tuple(float(x) for x in np.asarray(interarrivals_s).ravel()), cycle)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_count(n)
        trace = np.asarray(self.interarrivals_s)
        if n > trace.size:
            if not self.cycle:
                raise ValueError(
                    f"trace holds {trace.size} inter-arrivals but {n} were requested"
                )
            trace = np.tile(trace, -(-n // trace.size))
        return np.cumsum(trace[:n])

    def _sample_pieces(self, n: int, rng: np.random.Generator):
        trace = np.asarray(self.interarrivals_s, dtype=float)
        if n > trace.size and not self.cycle:
            raise ValueError(
                f"trace holds {trace.size} inter-arrivals but {n} were requested"
            )
        carry = 0.0
        for lo in range(0, n, _PIECE):
            hi = min(lo + _PIECE, n)
            gaps = trace[np.arange(lo, hi) % trace.size]
            gaps[0] = gaps[0] + carry
            times = np.cumsum(gaps)
            carry = times[-1]
            yield times

    def mean_rate_hz(self) -> float:
        return len(self.interarrivals_s) / sum(self.interarrivals_s)
