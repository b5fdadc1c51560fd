"""Requests: what the fleet serves, and how their compute demand is drawn.

A :class:`Request` is one unit of user-facing work — a vision kernel run on
one input — reduced to the quantity the pacing model needs: the time the
task would take on a single sustained core.  Service models turn a random
stream into concrete demands:

* :class:`FixedService` — every request costs the same (the paper's
  five-second canonical task),
* :class:`LognormalService` — heavy-tailed demands around a median, the
  usual shape of interactive request sizes,
* :class:`SuiteService` — demands drawn from the Table 1 kernel suite at
  its input-size classes (:mod:`repro.workloads`), so a request literally
  is "sobel on a class-C image" with the back-of-envelope single-core time
  of that workload descriptor.

:func:`generate_requests` zips an arrival process with a service model
under a single seed, split with :class:`numpy.random.SeedSequence` so the
arrival stream and the demand stream are independent but both reproducible.

Usage:

>>> from repro.traffic.arrivals import DeterministicArrivals
>>> from repro.traffic.request import FixedService, generate_requests
>>> reqs = generate_requests(
...     DeterministicArrivals(5.0), FixedService(5.0), n=3, seed=0
... )
>>> [(r.index, r.arrival_s, r.sustained_time_s) for r in reqs]
[(0, 0.0, 5.0), (1, 5.0, 5.0), (2, 10.0, 5.0)]
"""

from __future__ import annotations

import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.traffic.arrivals import DEFAULT_CHUNK, ArrivalProcess


@dataclass(frozen=True)
class Request:
    """One unit of work arriving at the fleet."""

    index: int
    arrival_s: float
    #: Single-core sustained execution time — the pacing model's currency.
    sustained_time_s: float
    kernel: str = ""
    input_label: str = ""
    #: Optional latency budget, relative to arrival.  A central-queue engine
    #: abandons the request if it has not *started* by the deadline; a served
    #: request that *completes* past it counts as a deadline miss.  ``None``
    #: means the request waits forever and never misses.
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        # Written so that NaN fails every check: a NaN arrival or demand
        # would otherwise flow through the engine into a NaN summary.
        if not 0.0 <= self.arrival_s < math.inf:
            raise ValueError("arrival time must be finite and non-negative")
        if not 0.0 < self.sustained_time_s < math.inf:
            raise ValueError("sustained time must be positive and finite")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError("deadline must be positive (or None)")

    @property
    def deadline_at_s(self) -> float:
        """Absolute deadline instant (``inf`` when no deadline is set)."""
        if self.deadline_s is None:
            return float("inf")
        return self.arrival_s + self.deadline_s


class ServiceModel(ABC):
    """Draws per-request compute demands."""

    @abstractmethod
    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        """Return ``n`` tuples of (sustained seconds, kernel, input label)."""

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, tuple[str, ...] | str, tuple[str, ...] | str]:
        """Array form of :meth:`sample`: (demands, kernels, input labels).

        Demands come back as a float array; kernels and labels are either a
        single string (when uniform across the block) or one string per
        request.  Successive calls on one generator concatenate to the same
        draw stream as a single whole-``n`` call — the property tests lock
        this per model — so chunked request generation stays bit-identical
        to :func:`generate_requests`.
        """
        draws = self.sample(n, rng)
        demands = np.array([d[0] for d in draws], dtype=float)
        return demands, tuple(d[1] for d in draws), tuple(d[2] for d in draws)


@dataclass(frozen=True)
class FixedService(ServiceModel):
    """Every request takes the same sustained single-core time."""

    sustained_time_s: float
    kernel: str = "fixed"
    input_label: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.sustained_time_s < math.inf:
            raise ValueError("sustained time must be positive and finite")

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        return [(self.sustained_time_s, self.kernel, self.input_label)] * n

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, str, str]:
        return np.full(n, self.sustained_time_s), self.kernel, self.input_label


@dataclass(frozen=True)
class GammaService(ServiceModel):
    """Gamma-distributed demands with a given mean and coefficient of variation.

    ``cv = 0`` degenerates to :class:`FixedService`; ``cv = 1`` is
    exponential; larger values give burstier request sizes.  The gamma
    family keeps draws strictly positive for any cv.
    """

    mean_s: float
    cv: float = 0.5
    kernel: str = "gamma"

    def __post_init__(self) -> None:
        if not 0.0 < self.mean_s < math.inf:
            raise ValueError("mean service time must be positive and finite")
        if not 0.0 <= self.cv < math.inf:
            raise ValueError("coefficient of variation must be finite and non-negative")

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        if self.cv == 0:
            draws = np.full(n, self.mean_s)
        else:
            shape = 1.0 / (self.cv * self.cv)
            draws = rng.gamma(shape, self.mean_s / shape, size=n)
            # For large cv the tiny shape parameter makes exact-0.0 draws
            # possible; clamp so every request stays a valid positive task.
            draws = np.maximum(draws, np.finfo(float).tiny)
        return [(float(d), self.kernel, "") for d in draws]

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, str, str]:
        if self.cv == 0:
            return np.full(n, self.mean_s), self.kernel, ""
        shape = 1.0 / (self.cv * self.cv)
        draws = rng.gamma(shape, self.mean_s / shape, size=n)
        return np.maximum(draws, np.finfo(float).tiny), self.kernel, ""


@dataclass(frozen=True)
class LognormalService(ServiceModel):
    """Lognormal demands: heavy-tailed around ``median_s`` with shape ``sigma``."""

    median_s: float
    sigma: float = 0.5
    kernel: str = "lognormal"

    def __post_init__(self) -> None:
        if not 0.0 < self.median_s < math.inf:
            raise ValueError("median service time must be positive and finite")
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and non-negative")

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        draws = self.median_s * np.exp(self.sigma * rng.standard_normal(n))
        return [(float(d), self.kernel, "") for d in draws]

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, str, str]:
        return self.median_s * np.exp(self.sigma * rng.standard_normal(n)), self.kernel, ""


@dataclass
class SuiteService(ServiceModel):
    """Demands drawn from the Table 1 kernel suite's input-size classes.

    Each request picks a (kernel, input class) uniformly — or by the given
    weights — from the suite and costs that workload's back-of-envelope
    single-core time at ``frequency_hz``
    (:meth:`~repro.workloads.descriptor.WorkloadDescriptor.single_core_seconds`).
    The suite table is built once and reused, so sampling is cheap
    (eagerly at construction when ``weights`` are given, so a mismatched
    length fails fast; lazily on first sample otherwise).
    """

    frequency_hz: float = 1e9
    kernels: tuple[str, ...] | None = None
    weights: tuple[float, ...] | None = None
    _table: list[tuple[float, str, str]] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.frequency_hz < math.inf:
            raise ValueError("frequency must be positive and finite")
        if self.weights is not None:
            if any(w < 0 for w in self.weights) or sum(self.weights) <= 0:
                raise ValueError("weights must be non-negative with a positive sum")
            self._entries()  # build the table now so a wrong length fails fast

    def _entries(self) -> list[tuple[float, str, str]]:
        if not self._table:
            from repro.workloads import kernel_suite

            suite = kernel_suite()
            names = self.kernels or tuple(sorted(suite))
            for name in names:
                family = suite[name]
                for label in family.input_labels:
                    workload = family.workload(label)
                    seconds = workload.single_core_seconds(self.frequency_hz)
                    self._table.append((seconds, name, label))
        if self.weights is not None and len(self.weights) != len(self._table):
            raise ValueError(
                f"{len(self._table)} suite entries but {len(self.weights)} weights"
            )
        return self._table

    def sample(self, n: int, rng: np.random.Generator) -> list[tuple[float, str, str]]:
        entries = self._entries()
        probabilities = None
        if self.weights is not None:
            total = sum(self.weights)
            probabilities = [w / total for w in self.weights]
        picks = rng.choice(len(entries), size=n, p=probabilities)
        return [entries[int(i)] for i in picks]

    def sample_block(
        self, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, tuple[str, ...], tuple[str, ...]]:
        chosen = self.sample(n, rng)
        demands = np.array([c[0] for c in chosen], dtype=float)
        return demands, tuple(c[1] for c in chosen), tuple(c[2] for c in chosen)


def _rows(values: tuple[str, ...] | str, n: int) -> tuple[str, ...]:
    """A uniform-or-per-row string column, one entry per row."""
    return (values,) * n if isinstance(values, str) else tuple(values)


@dataclass(frozen=True, eq=False)
class RequestBlock:
    """A time-ordered run of requests in columnar (array) form.

    The engine cores consume these directly; indexing (``block[i]``) and
    :meth:`to_requests` materialise the equivalent :class:`Request`
    objects, bit-identical to what :func:`generate_requests` builds for
    the same indices.  Kernels and input labels are a single string when
    uniform across the block, or one entry per request otherwise.
    ``deadline_s`` is one relative deadline for the whole block, ``None``,
    or one entry per request (``inf`` meaning none).  A block cut out of a
    longer stream (one rack's share of a sharded run) carries its requests'
    indices in ``index``; otherwise they run on from ``start_index``.
    """

    start_index: int
    arrival_s: np.ndarray
    sustained_time_s: np.ndarray
    kernels: tuple[str, ...] | str = ""
    input_labels: tuple[str, ...] | str = ""
    deadline_s: float | np.ndarray | None = None
    index: np.ndarray | None = None

    def __post_init__(self) -> None:
        # One vectorised check per block instead of one per request.
        if not (np.isfinite(self.arrival_s).all() and (self.arrival_s >= 0).all()):
            raise ValueError("arrival times must be finite and non-negative")
        demands = self.sustained_time_s
        if not (np.isfinite(demands).all() and (demands > 0).all()):
            raise ValueError("sustained times must be positive and finite")
        if self.deadline_s is not None and not np.all(np.asarray(self.deadline_s) > 0):
            raise ValueError("deadline must be positive (or None)")

    def __len__(self) -> int:
        return self.arrival_s.size

    def __eq__(self, other: object) -> bool:
        """Equal when every row would materialise to an equal request."""
        if not isinstance(other, RequestBlock):
            return NotImplemented
        n = len(self)
        return (
            n == len(other)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.arrival_s, other.arrival_s)
            and np.array_equal(self.sustained_time_s, other.sustained_time_s)
            and np.array_equal(self._deadline_rows(), other._deadline_rows())
            and _rows(self.kernels, n) == _rows(other.kernels, n)
            and _rows(self.input_labels, n) == _rows(other.input_labels, n)
        )

    __hash__ = None  # type: ignore[assignment]

    def _deadline_rows(self) -> np.ndarray:
        deadline = self.deadline_s
        if np.ndim(deadline):
            return deadline
        return np.full(len(self), math.inf if deadline is None else deadline)

    @property
    def indices(self) -> np.ndarray:
        """Request index of every row."""
        if self.index is not None:
            return self.index
        return np.arange(self.start_index, self.start_index + self.arrival_s.size)

    @property
    def deadline_at_s(self) -> np.ndarray | None:
        """Absolute deadline of every row (``inf`` where none), or None.

        ``arrival + deadline`` elementwise is the float operation of
        :attr:`Request.deadline_at_s`.
        """
        if self.deadline_s is None:
            return None
        return self.arrival_s + self.deadline_s

    def kernel_at(self, i: int) -> str:
        """Kernel name of request ``i`` within the block."""
        return self.kernels if isinstance(self.kernels, str) else self.kernels[i]

    def label_at(self, i: int) -> str:
        """Input label of request ``i`` within the block."""
        return (
            self.input_labels
            if isinstance(self.input_labels, str)
            else self.input_labels[i]
        )

    def __getitem__(self, i: int) -> Request:
        """Row ``i`` materialised as a :class:`Request`."""
        deadline = self.deadline_s
        if np.ndim(deadline):
            deadline = float(deadline[i])
            if deadline == math.inf:
                deadline = None
        return Request(
            index=int(self.index[i]) if self.index is not None else self.start_index + i,
            arrival_s=float(self.arrival_s[i]),
            sustained_time_s=float(self.sustained_time_s[i]),
            kernel=self.kernel_at(i),
            input_label=self.label_at(i),
            deadline_s=deadline,
        )

    def to_requests(self) -> list[Request]:
        """Materialise the block as :class:`Request` objects."""
        n = len(self)
        deadline = self.deadline_s
        if np.ndim(deadline):
            deadlines = [None if d == math.inf else d for d in deadline.tolist()]
        else:
            deadlines = [deadline] * n
        return [
            Request(index, arrival, demand, kernel, label, relative)
            for index, arrival, demand, kernel, label, relative in zip(
                self.indices.tolist(),
                self.arrival_s.tolist(),
                self.sustained_time_s.tolist(),
                _rows(self.kernels, n),
                _rows(self.input_labels, n),
                deadlines,
            )
        ]

    def take(self, rows: np.ndarray) -> "RequestBlock":
        """The block of the given rows, in the given order, indices kept."""

        def pick(values):
            if isinstance(values, str):
                return values
            return tuple(values[i] for i in rows.tolist())

        deadline = self.deadline_s
        if np.ndim(deadline):
            deadline = deadline[rows]
        return RequestBlock(
            start_index=0,
            arrival_s=self.arrival_s[rows],
            sustained_time_s=self.sustained_time_s[rows],
            kernels=pick(self.kernels),
            input_labels=pick(self.input_labels),
            deadline_s=deadline,
            index=self.index[rows] if self.index is not None else self.start_index + rows,
        )

    @classmethod
    def concat(cls, blocks: "list[RequestBlock]") -> "RequestBlock":
        """One block holding ``blocks`` back to back."""
        if len(blocks) == 1:
            return blocks[0]
        if not blocks:
            empty = np.zeros(0)
            return cls(0, empty, empty, index=np.zeros(0, dtype=np.int64))

        def joined(values):
            if all(isinstance(v, str) for v in values) and len(set(values)) == 1:
                return values[0]
            out: list[str] = []
            for v, block in zip(values, blocks):
                out.extend([v] * len(block) if isinstance(v, str) else v)
            return tuple(out)

        deadlines = [b.deadline_s for b in blocks]
        if not any(np.ndim(d) for d in deadlines) and len(set(deadlines)) == 1:
            deadline = deadlines[0]
        else:
            deadline = np.concatenate([b._deadline_rows() for b in blocks])
        return cls(
            start_index=0,
            arrival_s=np.concatenate([b.arrival_s for b in blocks]),
            sustained_time_s=np.concatenate([b.sustained_time_s for b in blocks]),
            kernels=joined([b.kernels for b in blocks]),
            input_labels=joined([b.input_labels for b in blocks]),
            deadline_s=deadline,
            index=np.concatenate([b.indices for b in blocks]),
        )

    @classmethod
    def from_requests(cls, requests: "Sequence[Request]") -> "RequestBlock":
        """The columns of ``requests``, in the given order."""
        n = len(requests)

        def column(name: str, dtype) -> np.ndarray:
            return np.fromiter(map(operator.attrgetter(name), requests), dtype, count=n)

        def uniform_or_rows(name: str):
            rows = tuple(map(operator.attrgetter(name), requests))
            return rows[0] if len(set(rows)) == 1 else rows

        deadline = uniform_or_rows("deadline_s")
        if isinstance(deadline, tuple):
            deadline = np.array([math.inf if d is None else d for d in deadline])
        return cls(
            start_index=0,
            arrival_s=column("arrival_s", float),
            sustained_time_s=column("sustained_time_s", float),
            kernels=uniform_or_rows("kernel"),
            input_labels=uniform_or_rows("input_label"),
            deadline_s=deadline,
            index=column("index", np.int64),
        )


def generate_request_blocks(
    arrivals: ArrivalProcess,
    service: ServiceModel,
    n: int,
    seed: int | np.random.SeedSequence = 0,
    deadline_s: float | None = None,
    chunk_size: int = DEFAULT_CHUNK,
):
    """Stream the :func:`generate_requests` stream as :class:`RequestBlock`s.

    Same seed-splitting discipline as :func:`generate_requests` — one child
    stream for arrivals, one for service demands — and the arrival/service
    block draws are locked bit-identical to their scalar forms, so
    concatenating the yielded blocks reproduces ``generate_requests(...)``
    exactly while holding only ``chunk_size`` requests in memory at a time.
    """
    if n < 1:
        raise ValueError("at least one request is required")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    arrival_seq, service_seq = root.spawn(2)
    arrival_rng = np.random.default_rng(arrival_seq)
    service_rng = np.random.default_rng(service_seq)

    def blocks():
        start = 0
        for times in arrivals.sample_blocks(n, arrival_rng, chunk_size):
            demands, kernels, labels = service.sample_block(times.size, service_rng)
            yield RequestBlock(start, times, demands, kernels, labels, deadline_s)
            start += times.size

    return blocks()


def generate_requests(
    arrivals: ArrivalProcess,
    service: ServiceModel,
    n: int,
    seed: int | np.random.SeedSequence = 0,
    deadline_s: float | None = None,
) -> list[Request]:
    """Materialise ``n`` requests from an arrival process and a service model.

    The seed is split into independent child streams for arrivals and
    service demands, so the same seed always yields the same requests and
    changing the service model never perturbs the arrival times.
    ``deadline_s`` attaches the same relative latency budget to every
    request (``None`` leaves them deadline-free).
    """
    if n < 1:
        raise ValueError("at least one request is required")
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    arrival_seq, service_seq = root.spawn(2)
    times = arrivals.sample(n, np.random.default_rng(arrival_seq))
    demands = service.sample(n, np.random.default_rng(service_seq))
    return [
        Request(
            index=i,
            arrival_s=float(times[i]),
            sustained_time_s=demands[i][0],
            kernel=demands[i][1],
            input_label=demands[i][2],
            deadline_s=deadline_s,
        )
        for i in range(n)
    ]
