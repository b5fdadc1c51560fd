"""A sprint-capable device serving a stream of requests.

:class:`SprintDevice` wraps the thermal reservoir of
:class:`repro.core.pacing.SprintPacer` behind a serving interface: each
request it is handed runs sprinted if the device's remaining budget allows,
partially sprinted if only some does, or sustained otherwise — and the heat
it deposits is still there when the next request lands, so back-to-back
requests on a hot device genuinely see a depleted budget.  The reservoir
physics behind that budget is the device's ``thermal`` backend
(:mod:`repro.core.thermal_backend`): linear rule-of-thumb, RC cooling, or
per-request PCM enthalpy, whose temperature/melt telemetry rides on every
:class:`ServedRequest`.  The device also exposes the two projections a
dispatcher needs without perturbing state: when it will next be free, and
how much sprint budget a request arriving at a given time would find.

Two entry points hand the device work, matching the two dispatch modes of
:mod:`repro.traffic.engine`:

* :meth:`SprintDevice.serve` — immediate dispatch: the request joins the
  device at its arrival time and the pacer resolves any wait behind queued
  work (``queueing_delay_s`` comes from the pacer).
* :meth:`SprintDevice.execute` — deferred (central-queue) dispatch: the
  engine held the request in a shared queue and assigns it at a start time
  when the device is known to be free; the engine owns the queueing delay.

Usage — a cold device sprints the paper's canonical five-second task and
finishes it in half a second:

>>> from repro.core.config import SystemConfig
>>> from repro.traffic.device import SprintDevice
>>> from repro.traffic.request import Request
>>> dev = SprintDevice(SystemConfig.paper_default(), device_id=0)
>>> served = dev.serve(Request(index=0, arrival_s=0.0, sustained_time_s=5.0))
>>> served.sprinted, round(served.latency_s, 2)
(True, 0.5)
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import SystemConfig
from repro.core.pacing import SprintPacer, TaskOutcome
from repro.core.thermal_backend import ThermalBackend, ThermalSpec
from repro.traffic.request import Request, RequestBlock


@dataclass(frozen=True)
class ServedRequest:
    """One request's fate after being dispatched and executed."""

    request: Request
    device_id: int
    sprinted: bool
    queueing_delay_s: float
    service_time_s: float
    stored_heat_before_j: float
    stored_heat_after_j: float
    #: How much of the achievable sprint speedup this request realised:
    #: 1.0 = full sprint, 0.0 = fully sustained, in between for partial
    #: sprints (``sprinted`` alone cannot distinguish a 97%-sustained
    #: partial sprint from a full one).
    sprint_fullness: float = 0.0
    #: Package temperature the device's thermal backend reported after the
    #: request completed (the linear backend maps fill linearly onto the
    #: ambient-to-limit range; physics backends report actual state).
    package_temperature_c: float = 0.0
    #: Liquid fraction of the device's PCM after the request (0 unless the
    #: device paces with the ``pcm`` backend).
    melt_fraction: float = 0.0

    @property
    def latency_s(self) -> float:
        """User-visible latency: queueing behind earlier work plus execution."""
        return self.queueing_delay_s + self.service_time_s

    @property
    def completed_at_s(self) -> float:
        """Absolute completion time."""
        return self.request.arrival_s + self.latency_s

    @property
    def missed_deadline(self) -> bool:
        """True when the request had a deadline and completed after it."""
        return self.completed_at_s > self.request.deadline_at_s


#: Outcome columns of :class:`ServedColumns`, in :class:`ServedRequest`
#: field order after ``request``.
OUTCOME_FIELDS = (
    "device_id",
    "sprinted",
    "queueing_delay_s",
    "service_time_s",
    "stored_heat_before_j",
    "stored_heat_after_j",
    "sprint_fullness",
    "package_temperature_c",
    "melt_fraction",
)


#: Array dtype of each outcome column.
OUTCOME_DTYPES = (np.int64, bool) + (float,) * (len(OUTCOME_FIELDS) - 2)


@dataclass(frozen=True, eq=False)
class ServedColumns:
    """Served requests in columnar form: the requests plus one array per outcome.

    Row ``i`` holds what :class:`ServedRequest` ``i`` would: the request
    row of ``requests`` and the outcome fields of :data:`OUTCOME_FIELDS`.
    The engine cores emit this instead of one object per request;
    :attr:`served` builds the equivalent tuple of :class:`ServedRequest`
    once, on first access.  Two column sets are equal when every column is
    (float columns compare as the objects' floats would).
    """

    requests: RequestBlock
    device_id: np.ndarray
    sprinted: np.ndarray
    queueing_delay_s: np.ndarray
    service_time_s: np.ndarray
    stored_heat_before_j: np.ndarray
    stored_heat_after_j: np.ndarray
    sprint_fullness: np.ndarray
    package_temperature_c: np.ndarray
    melt_fraction: np.ndarray

    @classmethod
    def empty(cls) -> "ServedColumns":
        return cls.from_served(())

    @classmethod
    def from_served(cls, served: "Sequence[ServedRequest]") -> "ServedColumns":
        """The columns of ``served``, in order (the tuple itself is kept)."""
        n = len(served)
        result = cls(
            RequestBlock.from_requests([s.request for s in served]),
            *(
                np.fromiter(map(operator.attrgetter(name), served), dtype, count=n)
                for name, dtype in zip(OUTCOME_FIELDS, OUTCOME_DTYPES)
            ),
        )
        result.__dict__["served"] = tuple(served)
        return result

    @classmethod
    def concat(cls, parts: "Sequence[ServedColumns]") -> "ServedColumns":
        """One column set holding ``parts`` back to back."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty()
        return cls(
            RequestBlock.concat([p.requests for p in parts]),
            **{
                name: np.concatenate([getattr(p, name) for p in parts])
                for name in OUTCOME_FIELDS
            },
        )

    def __len__(self) -> int:
        return self.device_id.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServedColumns):
            return NotImplemented
        return self.requests == other.requests and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in OUTCOME_FIELDS
        )

    __hash__ = None  # type: ignore[assignment]

    def take(self, rows: np.ndarray) -> "ServedColumns":
        """The given rows, in the given order."""
        taken = ServedColumns(
            self.requests.take(rows),
            **{name: getattr(self, name)[rows] for name in OUTCOME_FIELDS},
        )
        if "served" in self.__dict__:
            objects = self.__dict__["served"]
            taken.__dict__["served"] = tuple(objects[i] for i in rows.tolist())
        return taken

    def by_index(self) -> "ServedColumns":
        """The rows in request-index order."""
        order = np.argsort(self.requests.indices, kind="stable")
        if np.array_equal(order, np.arange(order.size)):
            return self
        return self.take(order)

    @property
    def latency_s(self) -> np.ndarray:
        """Per-row latency: queueing plus execution (:attr:`ServedRequest.latency_s`)."""
        return self.queueing_delay_s + self.service_time_s

    @property
    def completed_at_s(self) -> np.ndarray:
        """Per-row completion instant (:attr:`ServedRequest.completed_at_s`)."""
        return self.requests.arrival_s + self.latency_s

    @functools.cached_property
    def served(self) -> tuple[ServedRequest, ...]:
        """The rows as :class:`ServedRequest` objects, built once."""
        requests = self.requests.to_requests()
        columns = [getattr(self, name).tolist() for name in OUTCOME_FIELDS]
        return tuple(ServedRequest(request, *row) for request, *row in zip(requests, *columns))


class SprintDevice:
    """One sprint-enabled machine in a fleet.

    Parameters
    ----------
    config:
        Platform description (package, policy, power) shared by the fleet.
    device_id:
        Stable identifier used in results and dispatch tie-breaking.
    sprint_speedup:
        Responsiveness gain of a full sprint over sustained execution.
    sprint_enabled:
        When False the device always runs sustained — the no-sprint
        baseline fleet of a comparison — while still tracking queueing.
    refuse_partial_sprints:
        Passed through to :class:`~repro.core.pacing.SprintPacer`.
    thermal:
        Reservoir fidelity of this device's package — a backend name, a
        :class:`~repro.core.thermal_backend.ThermalSpec`, or a prebuilt
        :class:`~repro.core.thermal_backend.ThermalBackend` (owned by this
        device; never share one instance across devices).  Passed through
        to :class:`~repro.core.pacing.SprintPacer`.
    """

    def __init__(
        self,
        config: SystemConfig,
        device_id: int = 0,
        sprint_speedup: float = 10.0,
        sprint_enabled: bool = True,
        refuse_partial_sprints: bool = False,
        thermal: str | ThermalSpec | ThermalBackend = "linear",
        label: str | None = None,
    ) -> None:
        self.device_id = device_id
        #: Stable hierarchical identity (``row0/rack2/dev5`` in a topology
        #: fleet); defaults to the flat ``dev{device_id}`` form.
        self.label = f"dev{device_id}" if label is None else label
        self.sprint_enabled = sprint_enabled
        self.pacer = SprintPacer(
            config,
            sprint_speedup=sprint_speedup,
            refuse_partial_sprints=refuse_partial_sprints,
            thermal=thermal,
        )
        self.requests_served = 0
        self.busy_seconds = 0.0
        self.sprints_served = 0
        self._sprint_fullness_total = 0.0
        self.peak_temperature_c = 0.0
        self.peak_melt_fraction = 0.0
        self.peak_stored_heat_j = 0.0

    # -- dispatcher-facing projections (read-only) --------------------------------

    @property
    def busy_until_s(self) -> float:
        """Absolute time at which the device finishes its queued work."""
        return self.pacer.busy_until_s

    def start_time_for(self, arrival_s: float) -> float:
        """When a request arriving at ``arrival_s`` would begin executing."""
        return max(arrival_s, self.busy_until_s)

    def available_fraction_at(self, time_s: float) -> float:
        """Projected sprint-budget fraction available at a future instant."""
        return self.pacer.available_fraction_at(time_s)

    @property
    def thermal_backend(self) -> ThermalBackend:
        """The thermal backend owning this device's reservoir state."""
        return self.pacer.backend

    @property
    def sprint_fullness_mean(self) -> float:
        """Mean realised sprint fullness over every request served so far."""
        if self.requests_served == 0:
            return 0.0
        return self._sprint_fullness_total / self.requests_served

    # -- serving --------------------------------------------------------------------

    def serve(self, request: Request, allow_sprint: bool | None = None) -> ServedRequest:
        """Execute one request; requests must be handed over in arrival order.

        Immediate-dispatch entry point: the request joins this device at its
        arrival time and waits behind any queued work (the pacer reports that
        wait in ``queueing_delay_s``).  ``allow_sprint`` is the grant
        handshake of a governed fleet: a power governor that denied this
        request's sprint grant passes False to force sustained execution
        (``None`` leaves the decision to the device's own
        ``sprint_enabled``; a grant never overrides a sprint-disabled
        device).
        """
        outcome = self.pacer.task_arrival(
            request.arrival_s,
            request.sustained_time_s,
            index=request.index,
            allow_sprint=self._may_sprint(allow_sprint),
        )
        return self._record(request, outcome)

    def execute(
        self, request: Request, start_s: float, allow_sprint: bool | None = None
    ) -> ServedRequest:
        """Execute one request starting exactly at ``start_s``.

        Central-queue entry point: the engine held the request in a shared
        queue and only assigns it when this device is free, so the queueing
        delay is the engine's (``start_s - arrival_s``), not the pacer's.
        ``allow_sprint`` carries a power governor's grant decision, as in
        :meth:`serve`.
        """
        outcome = self.pacer.execute_at(
            start_s,
            request.sustained_time_s,
            index=request.index,
            allow_sprint=self._may_sprint(allow_sprint),
            arrival_s=request.arrival_s,
        )
        return self._record(request, outcome)

    def _may_sprint(self, allow_sprint: bool | None) -> bool:
        if allow_sprint is None:
            return self.sprint_enabled
        return allow_sprint and self.sprint_enabled

    def _record(self, request: Request, outcome: TaskOutcome) -> ServedRequest:
        self.requests_served += 1
        self.busy_seconds += outcome.response_time_s
        self.sprints_served += int(outcome.sprinted)
        self._sprint_fullness_total += outcome.sprint_fullness
        # Running per-device thermal peaks: the hotspot record survives in
        # O(1) even when the run keeps no ServedRequest samples.
        if outcome.package_temperature_c > self.peak_temperature_c:
            self.peak_temperature_c = outcome.package_temperature_c
        if outcome.melt_fraction > self.peak_melt_fraction:
            self.peak_melt_fraction = outcome.melt_fraction
        if outcome.stored_heat_after_j > self.peak_stored_heat_j:
            self.peak_stored_heat_j = outcome.stored_heat_after_j
        return ServedRequest(
            request=request,
            device_id=self.device_id,
            sprinted=outcome.sprinted,
            queueing_delay_s=outcome.queueing_delay_s,
            service_time_s=outcome.response_time_s,
            stored_heat_before_j=outcome.stored_heat_before_j,
            stored_heat_after_j=outcome.stored_heat_after_j,
            sprint_fullness=outcome.sprint_fullness,
            package_temperature_c=outcome.package_temperature_c,
            melt_fraction=outcome.melt_fraction,
        )

    def absorb_batch(
        self,
        *,
        served: int,
        busy_seconds: float,
        sprints: int,
        fullness_total: float,
        peak_stored_heat_j: float,
        peak_temperature_c: float,
        peak_melt_fraction: float,
    ) -> None:
        """Fold a batched run's counters and thermal peaks into this device.

        The batched engine cores (:mod:`repro.traffic.fastpath`) execute a
        device's requests without building a :class:`ServedRequest` per
        request, then land the counters and peaks :meth:`_record` would
        have kept here in one step — bit-identical to having called
        :meth:`serve` per request.  The pacer and reservoir state is moved
        separately: by the pacer's own ``execute_at`` on physics backends,
        by ``advance_to`` and the reservoir's ``absorb_batch`` on the
        linear one.
        """
        if served < 0 or sprints < 0 or sprints > served:
            raise ValueError("batch counters are inconsistent")
        self.requests_served += served
        self.busy_seconds += busy_seconds
        self.sprints_served += sprints
        self._sprint_fullness_total += fullness_total
        if peak_temperature_c > self.peak_temperature_c:
            self.peak_temperature_c = peak_temperature_c
        if peak_melt_fraction > self.peak_melt_fraction:
            self.peak_melt_fraction = peak_melt_fraction
        if peak_stored_heat_j > self.peak_stored_heat_j:
            self.peak_stored_heat_j = peak_stored_heat_j

    def reset(self) -> None:
        """Cool the package and forget all serving history."""
        self.pacer.reset()
        self.requests_served = 0
        self.busy_seconds = 0.0
        self.sprints_served = 0
        self._sprint_fullness_total = 0.0
        self.peak_temperature_c = 0.0
        self.peak_melt_fraction = 0.0
        self.peak_stored_heat_j = 0.0
