"""Fleet sprint governor: coordinated sprinting under a shared power budget.

The paper's capacitance argument is device-local: thermal mass lets one chip
briefly exceed its sustainable power.  A rack replays the same argument one
level up — the provisioned supply (and its breaker) is sized for the fleet's
sustained draw plus some headroom, so *concurrent* sprints across devices
share a budget exactly the way one chip's sprints share a heat reservoir.
This module is that shared budget: a :class:`SprintGovernor` issues **grants**
for sprints, the serving engine acquires one before a device may run a
request sprinted and releases it when the device frees, and four policies
decide who gets to sprint:

* ``unlimited`` — every sprint is granted and nothing is tracked; the engine
  bypasses the governor entirely, so results are bit-identical to an
  ungoverned fleet (locked by regression tests).
* ``greedy`` — first-come grants up to ``max_concurrent_sprints``.  Greedy is
  breaker-oblivious: given a ``trip_headroom_w``, it will happily grant past
  the trip point and trip the breaker.
* ``token_bucket`` — a sustained-rate cap with burst credit: tokens refill at
  ``sprint_rate_hz`` up to ``burst_sprints``, one token per sprint.  This is
  the paper's capacitance argument at rack scale — the bucket *is* the
  electrical/thermal slack of the room, spent in bursts and repaid at the
  sustainable rate.
* ``cooperative_threshold`` — a sprint is granted only when the projected
  fleet excess draw (including the new sprint) stays at or under the trip
  point, so a cooperative fleet never trips the breaker that an identically
  loaded greedy fleet does.

The breaker
-----------
Any governed policy may carry a ``trip_headroom_w`` trip point: whenever the
*actual* granted excess draw exceeds it, the breaker trips.  The model does
not cut power to sprints already in flight (their outcomes are committed);
instead a trip opens a recovery window of ``penalty_s`` seconds during which
every grant is denied, forcing fleet-wide non-sprint operation — the serving
analogue of waiting for the breaker to be reset.  Trips, denials, released
grants, and time spent at the cap are all reported in :class:`GovernorStats`.

Grant semantics
---------------
A grant reserves breaker headroom from the instant the request is dispatched
until the device frees (the engine releases it on the request's completion
event).  In immediate dispatch mode a request bound to a busy device holds
its grant while queueing — a conservative reservation, like capacity
reservations in real admission control.  A grant whose request ends up not
sprinting (the device's own thermal reservoir was empty, or the device has
sprinting disabled) is released back immediately — concurrency policies
return the slot, the token bucket refunds the token — and counted in
``grants_released_unused``, so budget never leaks.

Usage — two greedy slots: the third concurrent sprint is denied, and the
run's ledger records both outcomes:

>>> from repro.traffic.governor import GreedyGovernor
>>> gov = GreedyGovernor(excess_power_w=10.0, max_concurrent_sprints=2)
>>> gov.acquire(0.0), gov.acquire(0.0), gov.acquire(0.0)
(True, True, False)
>>> gov.release(1.0)
>>> stats = gov.finalize(10.0)
>>> stats.sprints_granted, stats.sprints_denied
(2, 1)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.config import SystemConfig

__all__ = [
    "GOVERNOR_POLICIES",
    "CooperativeThresholdGovernor",
    "GovernorSpec",
    "GovernorStats",
    "GreedyGovernor",
    "SprintGovernor",
    "TokenBucketGovernor",
    "UnlimitedGovernor",
]

#: Governance policies a :class:`GovernorSpec` can name.
GOVERNOR_POLICIES = ("unlimited", "greedy", "token_bucket", "cooperative_threshold")

#: Tolerance for token-bucket float drift: a bucket within this of a whole
#: token grants, so refill arithmetic cannot starve an exactly-repaid bucket.
_TOKEN_EPS = 1e-9


@dataclass(frozen=True)
class GovernorStats:
    """What one governed run did with its shared power budget.

    ``time_at_cap_s`` is the total simulated time during which the governor
    could not have issued a grant — at its concurrency cap or trip point,
    inside a post-trip penalty window, or (token bucket) with less than one
    token in the bucket.  It is the rack-scale analogue of a device's
    exhausted thermal reservoir: high values mean the provisioned budget,
    not the devices, is what limits sprinting.
    """

    policy: str
    #: Per-sprint excess draw above sustained operation (W), from the config.
    excess_power_w: float
    sprints_granted: int
    sprints_denied: int
    #: Grants returned unused because the granted request did not sprint
    #: (device thermally exhausted or sprint-disabled) — budget that never
    #: translated into draw, released back at the grant instant.
    grants_released_unused: int
    breaker_trips: int
    #: Instants at which the breaker tripped, in time order.
    trip_times_s: tuple[float, ...]
    time_at_cap_s: float
    peak_concurrent_sprints: int

    @property
    def peak_excess_draw_w(self) -> float:
        """Highest granted excess draw the run ever reached."""
        return self.peak_concurrent_sprints * self.excess_power_w


class SprintGovernor:
    """Base grant-accounting machinery shared by every policy.

    Subclasses implement :meth:`_decide` (grant or deny one sprint request
    at an instant) and :meth:`_saturated` (whether a request at an instant
    would be denied — used for ``time_at_cap_s`` bookkeeping).  The engine
    drives the protocol: :meth:`acquire` before a request may sprint,
    :meth:`release` when its device frees (or immediately, if the grant went
    unused), :meth:`pop_pending_reset` after each acquire so a breaker trip
    can schedule its recovery event, and :meth:`finalize` once the event
    heap drains.

    Acquire/release timestamps must be non-decreasing — the engine calls
    them in event order, which guarantees it.
    """

    name = "base"
    is_unlimited = False
    #: Whether the batched engine core can replay this policy's grant
    #: decisions exactly (see :mod:`repro.traffic.fastpath`).  The batch
    #: core drives the real governor object at the exact event timestamps,
    #: which is exact for purely event-driven policies; a policy whose
    #: decisions depend on state the batch core cannot reproduce must
    #: override this with False to stay on the exact loop.
    supports_batched_replay = True

    def __init__(
        self,
        excess_power_w: float,
        trip_headroom_w: float | None = None,
        penalty_s: float = 0.0,
    ) -> None:
        if excess_power_w < 0:
            raise ValueError("per-sprint excess power must be non-negative")
        if trip_headroom_w is not None and trip_headroom_w <= 0:
            raise ValueError("breaker trip headroom must be positive (or None)")
        if penalty_s < 0:
            raise ValueError("breaker penalty must be non-negative")
        self.excess_power_w = excess_power_w
        self.trip_headroom_w = trip_headroom_w
        self.penalty_s = penalty_s
        self.reset()

    # -- state ------------------------------------------------------------------------

    def reset(self) -> None:
        """Forget all grants, trips, and accounting (a fresh run)."""
        self._active = 0
        self._granted = 0
        self._denied = 0
        self._released_unused = 0
        self._trips: list[float] = []
        self._penalty_until = -math.inf
        self._pending_reset: float | None = None
        self._cap_since: float | None = None
        self._time_at_cap = 0.0
        self._peak_active = 0

    @property
    def active_grants(self) -> int:
        """Sprint grants currently held (0 once a run's events drain)."""
        return self._active

    @property
    def active_excess_draw_w(self) -> float:
        """Excess fleet draw currently reserved by held grants."""
        return self._active * self.excess_power_w

    @property
    def breaker_trips(self) -> int:
        """Breaker trips so far."""
        return len(self._trips)

    # -- the grant protocol -----------------------------------------------------------

    def acquire(self, now_s: float) -> bool:
        """Request a sprint grant at ``now_s``; True iff granted.

        A granted sprint that pushes the actual excess draw past the trip
        point trips the breaker: the sprint itself proceeds (greedy policies
        are breaker-oblivious by design), but a ``penalty_s`` recovery
        window opens during which every further grant is denied.
        """
        granted = self._decide(now_s)
        if granted:
            self._record_grant(now_s)
        else:
            self._denied += 1
        self._update_cap(now_s)
        return granted

    def release(self, now_s: float, used: bool = True) -> None:
        """Return one grant (the device freed, or the grant went unused)."""
        self._return_grant(now_s, used)
        self._update_cap(now_s)

    def would_deny(self, now_s: float) -> bool:
        """Non-binding probe: would :meth:`acquire` at ``now_s`` be denied?

        Nothing is granted, denied, or counted — the cascade protocol in
        :mod:`repro.traffic.topology` probes every level of a governor
        chain with this before committing the grant at all of them, so a
        parent-level refusal never leaves a child holding a phantom grant.
        """
        return self._saturated(now_s)

    def count_denial(self, now_s: float) -> None:
        """Record a denial this governor caused but did not itself decide.

        Used by the hierarchical cascade: when :meth:`would_deny` was True
        and the grant was therefore never attempted, the blocking level
        still owns the denial in its ledger.
        """
        self._denied += 1
        self._update_cap(now_s)

    def pop_pending_reset(self) -> float | None:
        """Instant of a just-tripped breaker's recovery, once, else None.

        The engine calls this after every :meth:`acquire` and schedules a
        breaker-reset event at the returned time, so the penalty window
        closes at its exact end even if no request arrives for a while.
        """
        at, self._pending_reset = self._pending_reset, None
        return at

    def on_breaker_reset(self, now_s: float) -> None:
        """The penalty window ended; close at-cap bookkeeping exactly here."""
        self._update_cap(now_s)

    def finalize(self, end_s: float) -> GovernorStats:
        """Close open accounting intervals at ``end_s`` and report the run."""
        self._close(end_s)
        return GovernorStats(
            policy=self.name,
            excess_power_w=self.excess_power_w,
            sprints_granted=self._granted,
            sprints_denied=self._denied,
            grants_released_unused=self._released_unused,
            breaker_trips=len(self._trips),
            trip_times_s=tuple(self._trips),
            time_at_cap_s=self._time_at_cap,
            peak_concurrent_sprints=self._peak_active,
        )

    # -- policy hooks -----------------------------------------------------------------

    def _decide(self, now_s: float) -> bool:
        raise NotImplementedError

    def _saturated(self, now_s: float) -> bool:
        """Would a grant request at ``now_s`` be denied?"""
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------------------

    def _in_penalty(self, now_s: float) -> bool:
        return now_s < self._penalty_until

    def _record_grant(self, now_s: float) -> None:
        self._granted += 1
        self._active += 1
        if self._active > self._peak_active:
            self._peak_active = self._active
        if (
            self.trip_headroom_w is not None
            and self.active_excess_draw_w > self.trip_headroom_w
        ):
            self._trip(now_s)

    def _return_grant(self, now_s: float, used: bool) -> None:
        if self._active <= 0:
            raise RuntimeError("release without a matching grant")
        self._active -= 1
        if not used:
            self._released_unused += 1

    def _trip(self, now_s: float) -> None:
        self._trips.append(now_s)
        if self.penalty_s > 0:
            self._penalty_until = now_s + self.penalty_s
            self._pending_reset = self._penalty_until

    def _update_cap(self, now_s: float, saturated: bool | None = None) -> None:
        """At-cap bookkeeping at ``now_s``; ``saturated`` when already known."""
        if saturated is None:
            saturated = self._saturated(now_s)
        if saturated:
            if self._cap_since is None:
                self._cap_since = now_s
        elif self._cap_since is not None:
            self._time_at_cap += now_s - self._cap_since
            self._cap_since = None

    # -- the cascade's single-evaluation protocol ------------------------------------
    #
    # A cascade (:class:`repro.traffic.topology.CascadeGovernor`) has
    # already probed every level with would_deny(), so it commits and
    # denies through these and settles releases with _settle, evaluating
    # each level's saturation once after the change and reusing it for
    # its own at-cap bookkeeping.

    def _settle(self, now_s: float) -> bool:
        """At-cap bookkeeping at ``now_s``; returns whether saturated."""
        saturated = self._saturated(now_s)
        self._update_cap(now_s, saturated)
        return saturated

    def _grant_cleared(self, now_s: float) -> bool:
        """Grant after a clear would_deny probe at ``now_s``; returns
        whether saturated afterwards."""
        self._record_grant(now_s)
        return self._settle(now_s)

    def _deny_blocked(self, now_s: float) -> None:
        """count_denial after a would_deny probe at ``now_s`` said True."""
        self._denied += 1
        self._update_cap(now_s, True)

    def _close(self, end_s: float) -> None:
        if self._cap_since is not None:
            self._time_at_cap += max(0.0, end_s - self._cap_since)
            self._cap_since = None


class UnlimitedGovernor(SprintGovernor):
    """Every sprint granted, nothing governed — today's behaviour.

    The engine recognises ``is_unlimited`` and skips the grant handshake
    entirely, so an unlimited-governed fleet is *bit-identical* to an
    ungoverned one (no extra events, no float-path changes).  The class
    still answers the protocol for callers that drive it directly.
    """

    name = "unlimited"
    is_unlimited = True

    def __init__(self, excess_power_w: float = 0.0) -> None:
        super().__init__(excess_power_w)

    def _decide(self, now_s: float) -> bool:
        return True

    def _saturated(self, now_s: float) -> bool:
        return False


class GreedyGovernor(SprintGovernor):
    """First-come grants up to a fixed number of concurrent sprints.

    Greedy never looks at the breaker before granting: with
    ``max_concurrent_sprints`` provisioned above the trip point it *will*
    trip, which is exactly the failure mode
    :class:`CooperativeThresholdGovernor` exists to avoid.
    """

    name = "greedy"

    def __init__(
        self,
        excess_power_w: float,
        max_concurrent_sprints: int,
        trip_headroom_w: float | None = None,
        penalty_s: float = 0.0,
    ) -> None:
        if max_concurrent_sprints < 1:
            raise ValueError("greedy needs at least one concurrent sprint slot")
        super().__init__(excess_power_w, trip_headroom_w, penalty_s)
        self.max_concurrent_sprints = max_concurrent_sprints

    def _decide(self, now_s: float) -> bool:
        if self._in_penalty(now_s):
            return False
        return self._active < self.max_concurrent_sprints

    def _saturated(self, now_s: float) -> bool:
        return self._in_penalty(now_s) or self._active >= self.max_concurrent_sprints


class CooperativeThresholdGovernor(SprintGovernor):
    """Sprint only when the projected fleet draw stays under the trip point.

    Grants are capped so the *projected* excess draw — held grants plus the
    new sprint — never exceeds ``trip_headroom_w``, so a cooperative fleet
    avoids the breaker trips a greedy fleet incurs at the same offered
    load.  The penalty machinery is still armed (a trip would open a
    ``penalty_s`` recovery window), but the threshold check makes the
    governor's own grants unable to cause one.
    """

    name = "cooperative_threshold"

    def __init__(
        self,
        excess_power_w: float,
        trip_headroom_w: float,
        penalty_s: float = 0.0,
    ) -> None:
        super().__init__(excess_power_w, trip_headroom_w, penalty_s)

    def _projected_draw_w(self) -> float:
        return (self._active + 1) * self.excess_power_w

    def _decide(self, now_s: float) -> bool:
        if self._in_penalty(now_s):
            return False
        return self._projected_draw_w() <= self.trip_headroom_w

    def _saturated(self, now_s: float) -> bool:
        return self._in_penalty(now_s) or self._projected_draw_w() > self.trip_headroom_w


class TokenBucketGovernor(SprintGovernor):
    """Sustained-rate sprint cap with burst credit (capacitance at rack scale).

    The bucket starts full at ``burst_sprints`` tokens (the rack's stored
    slack), refills continuously at ``sprint_rate_hz`` (the sustainable
    sprint rate the provisioning can repay), and each grant spends one
    token.  A grant released *unused* (the granted request never sprinted)
    refunds its token, so budget does not leak here any more than it does
    for the concurrency-counting policies.  ``time_at_cap_s`` counts the
    analytically exact span during which a grant would have been denied —
    less than one token in the bucket or a breaker penalty window, as a
    union, never double-counted — including between events, since the
    refill instant is deterministic.  Identical request streams give
    identical grants: the bucket holds no randomness.
    """

    name = "token_bucket"
    #: Continuous refill-on-decide credit makes every grant depend on real
    #: elapsed time between decisions; the batched core keeps this policy
    #: on the exact loop rather than certify the replay exact.
    supports_batched_replay = False

    def __init__(
        self,
        excess_power_w: float,
        sprint_rate_hz: float,
        burst_sprints: float,
        trip_headroom_w: float | None = None,
        penalty_s: float = 0.0,
    ) -> None:
        if sprint_rate_hz <= 0:
            raise ValueError("sustained sprint rate must be positive")
        if burst_sprints < 1:
            raise ValueError("burst capacity must cover at least one sprint")
        self.sprint_rate_hz = sprint_rate_hz
        self.burst_sprints = burst_sprints
        super().__init__(excess_power_w, trip_headroom_w, penalty_s)

    def reset(self) -> None:
        super().reset()
        self._tokens = self.burst_sprints
        self._last_refill_s = 0.0
        #: Open blocked interval: denial guaranteed over [_cap_from, _cap_until).
        self._cap_from: float | None = None
        self._cap_until = 0.0

    def _return_grant(self, now_s: float, used: bool) -> None:
        if not used and self._active > 0:
            # Refund the token: the grant never turned into sprint draw.
            self._refill(now_s)
            self._tokens = min(self.burst_sprints, self._tokens + 1.0)
        super()._return_grant(now_s, used)

    def _refill(self, now_s: float) -> None:
        self._tokens = min(
            self.burst_sprints,
            self._tokens + self.sprint_rate_hz * (now_s - self._last_refill_s),
        )
        self._last_refill_s = now_s

    def _decide(self, now_s: float) -> bool:
        self._refill(now_s)
        if self._in_penalty(now_s):
            return False
        if self._tokens < 1.0 - _TOKEN_EPS:
            return False
        self._tokens -= 1.0
        return True

    def _saturated(self, now_s: float) -> bool:
        return self._in_penalty(now_s) or self._tokens < 1.0 - _TOKEN_EPS

    def would_deny(self, now_s: float) -> bool:
        # The bucket must be refilled to ``now_s`` before the token check,
        # exactly as _decide does; refilling is idempotent at a fixed time.
        self._refill(now_s)
        return super().would_deny(now_s)

    def _advance_cap(self, now_s: float) -> None:
        """Settle the open blocked interval up to ``now_s`` (or its known end)."""
        if self._cap_from is not None:
            end = min(now_s, self._cap_until)
            if end > self._cap_from:
                self._time_at_cap += end - self._cap_from
            self._cap_from = None if now_s >= self._cap_until else now_s

    def _update_cap(self, now_s: float, saturated: bool | None = None) -> None:
        # The bucket's denial horizon is known analytically: the later of
        # the penalty end and the instant the bucket refills to one token.
        # Tracking it as one interval keeps overlapping penalty and
        # exhaustion spans from being counted twice, so a known
        # ``saturated`` flag adds nothing here.
        self._refill(now_s)
        self._advance_cap(now_s)
        horizon = now_s
        if self._in_penalty(now_s):
            horizon = max(horizon, self._penalty_until)
        if self._tokens < 1.0 - _TOKEN_EPS:
            recovery = now_s + (1.0 - self._tokens) / self.sprint_rate_hz
            horizon = max(horizon, recovery)
        if horizon > now_s:
            if self._cap_from is None:
                self._cap_from = now_s
            self._cap_until = horizon
        else:
            # No longer blocked (e.g. a refunded token); the settled time up
            # to now is already accumulated.
            self._cap_from = None

    def _settle(self, now_s: float) -> bool:
        self._update_cap(now_s)
        return self._saturated(now_s)

    def _grant_cleared(self, now_s: float) -> bool:
        # The clear probe refilled the bucket to ``now_s``; spend as _decide.
        self._tokens -= 1.0
        return super()._grant_cleared(now_s)

    def _close(self, end_s: float) -> None:
        self._advance_cap(end_s)


@dataclass(frozen=True)
class GovernorSpec:
    """A governance policy plus its knobs, independent of any platform.

    The spec is the sweep-friendly form of a governor: frozen (hashable, so
    it can sit on a grid axis and cross process boundaries) and built into
    a live :class:`SprintGovernor` against a concrete
    :class:`~repro.core.config.SystemConfig`, which supplies the per-sprint
    excess draw ``sprint_power_w - sustainable_power_w``.

    Knobs by policy (all others must stay unset):

    * ``unlimited`` — none.
    * ``greedy`` — ``max_concurrent_sprints`` (required);
      ``trip_headroom_w``/``penalty_s`` arm the breaker it ignores.
    * ``token_bucket`` — ``sprint_rate_hz`` and ``burst_sprints``
      (required); the breaker knobs are optional.
    * ``cooperative_threshold`` — ``trip_headroom_w`` (required) and
      ``penalty_s``.

    Policy names accept hyphens (``"token-bucket"``) and are normalised to
    the underscore form.
    """

    policy: str = "unlimited"
    max_concurrent_sprints: int | None = None
    sprint_rate_hz: float | None = None
    burst_sprints: float | None = None
    trip_headroom_w: float | None = None
    penalty_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", self.policy.replace("-", "_"))
        if self.policy not in GOVERNOR_POLICIES:
            raise ValueError(
                f"unknown governor policy {self.policy!r}; "
                f"available: {GOVERNOR_POLICIES}"
            )
        # Written so that NaN fails every check, and inf fails the ones a
        # finite budget needs.
        if not 0.0 <= self.penalty_s < math.inf:
            raise ValueError("breaker penalty must be finite and non-negative")
        if self.trip_headroom_w is not None and not 0.0 < self.trip_headroom_w < math.inf:
            raise ValueError("breaker trip headroom must be positive and finite (or None)")
        if self.policy == "unlimited":
            self._forbid(
                "max_concurrent_sprints",
                "sprint_rate_hz",
                "burst_sprints",
                "trip_headroom_w",
            )
        elif self.policy == "greedy":
            if self.max_concurrent_sprints is None or self.max_concurrent_sprints < 1:
                raise ValueError("greedy needs max_concurrent_sprints >= 1")
            self._forbid("sprint_rate_hz", "burst_sprints")
        elif self.policy == "token_bucket":
            if self.sprint_rate_hz is None or not 0.0 < self.sprint_rate_hz < math.inf:
                raise ValueError("token_bucket needs a positive, finite sprint_rate_hz")
            if self.burst_sprints is None or not 1.0 <= self.burst_sprints < math.inf:
                raise ValueError("token_bucket needs a finite burst_sprints >= 1")
            self._forbid("max_concurrent_sprints")
        else:  # cooperative_threshold
            if self.trip_headroom_w is None:
                raise ValueError("cooperative_threshold needs trip_headroom_w")
            self._forbid("max_concurrent_sprints", "sprint_rate_hz", "burst_sprints")

    def _forbid(self, *knobs: str) -> None:
        set_knobs = [k for k in knobs if getattr(self, k) is not None]
        if set_knobs:
            raise ValueError(f"{self.policy} governor does not take {set_knobs}")

    # -- constructors -----------------------------------------------------------------

    @classmethod
    def unlimited(cls) -> "GovernorSpec":
        return cls()

    @classmethod
    def greedy(
        cls,
        max_concurrent_sprints: int,
        trip_headroom_w: float | None = None,
        penalty_s: float = 0.0,
    ) -> "GovernorSpec":
        return cls(
            policy="greedy",
            max_concurrent_sprints=max_concurrent_sprints,
            trip_headroom_w=trip_headroom_w,
            penalty_s=penalty_s,
        )

    @classmethod
    def token_bucket(cls, sprint_rate_hz: float, burst_sprints: float) -> "GovernorSpec":
        return cls(
            policy="token_bucket",
            sprint_rate_hz=sprint_rate_hz,
            burst_sprints=burst_sprints,
        )

    @classmethod
    def cooperative(cls, trip_headroom_w: float, penalty_s: float = 0.0) -> "GovernorSpec":
        return cls(
            policy="cooperative_threshold",
            trip_headroom_w=trip_headroom_w,
            penalty_s=penalty_s,
        )

    # -- use --------------------------------------------------------------------------

    @property
    def label(self) -> str:
        """Compact form for sweep tables, e.g. ``greedy[4]`` or ``coop[60W]``."""
        if self.policy == "greedy":
            breaker = (
                "" if self.trip_headroom_w is None else f"!{self.trip_headroom_w:g}W"
            )
            return f"greedy[{self.max_concurrent_sprints}{breaker}]"
        if self.policy == "token_bucket":
            return f"token[{self.sprint_rate_hz:g}/s+{self.burst_sprints:g}]"
        if self.policy == "cooperative_threshold":
            return f"coop[{self.trip_headroom_w:g}W]"
        return "unlimited"

    def build(self, config: SystemConfig) -> SprintGovernor:
        """Instantiate the governor for a concrete platform."""
        excess_w = max(0.0, config.sprint_power_w - config.sustainable_power_w)
        if self.policy == "greedy":
            return GreedyGovernor(
                excess_w,
                max_concurrent_sprints=self.max_concurrent_sprints,
                trip_headroom_w=self.trip_headroom_w,
                penalty_s=self.penalty_s,
            )
        if self.policy == "token_bucket":
            return TokenBucketGovernor(
                excess_w,
                sprint_rate_hz=self.sprint_rate_hz,
                burst_sprints=self.burst_sprints,
                trip_headroom_w=self.trip_headroom_w,
                penalty_s=self.penalty_s,
            )
        if self.policy == "cooperative_threshold":
            return CooperativeThresholdGovernor(
                excess_w,
                trip_headroom_w=self.trip_headroom_w,
                penalty_s=self.penalty_s,
            )
        return UnlimitedGovernor(excess_w)
