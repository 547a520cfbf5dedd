"""Deterministic fault plans and the injector that replays them.

The paper's cost model assumes a healthy 4-node cluster; production
clusters have stragglers, flaky links, and crashed workers.  Because our
cluster is *simulated*, faults can be injected deterministically: a
:class:`FaultPlan` is a seeded schedule of :class:`FaultEvent`\\ s on the
epoch clock, and a :class:`FaultInjector` answers the engine's questions
("is worker 2 slow this epoch?", "does this remote fetch fail?") from
seeded per-``(epoch, worker)`` rng streams.  Two runs with the same plan
produce bit-identical fault timelines, retry counts, and simulated epoch
times — and a run resumed from an epoch-boundary checkpoint replays the
exact same draws, because every stream is reseeded at epoch start from
``(plan seed, epoch, worker)`` alone.

The plan is shared infrastructure: :meth:`FaultPlan.parse` is the
*single* schedule parser for both the training side (``repro train
--faults`` and the ``repro bench faults`` scenarios, times = integer
epochs) and the serving-fleet chaos harness (``repro bench fleet-chaos
--schedule``, times = simulated seconds, fractional allowed; ``worker``
then names a replica), and a plan compiles its events once into the
*single* timeline both clocks read: sorted ``crashes`` plus window
tuples answered by :meth:`FaultPlan.multipliers` and
:meth:`FaultPlan.failure_prob`.  Each consumer validates the clock
semantics it needs — :class:`FaultInjector` rejects non-integer
epochs, :class:`~repro.fleet.engine.FleetEngine` rejects epoch-only
kinds — but the token syntax, field validation, seeding and the order
in which overlapping windows multiply are defined once, here.

Event kinds
-----------
``halt``
    The training *process* dies when the given epoch begins
    (:class:`~repro.errors.FaultError`).  Models the crash that
    checkpoint/resume exists for.
``crash``
    One *worker* dies permanently at the given epoch.  The engine either
    redistributes its training vertices to survivors or drops them,
    and the all-reduce ring shrinks (see ``repro.dist.engine``).
``straggler``
    A worker's batch stage times are multiplied by ``magnitude`` for
    ``duration`` epochs (slow disk, thermal throttling, noisy
    neighbor).
``flaky``
    Each of a worker's remote fetch messages fails independently with
    probability ``magnitude`` for ``duration`` epochs; the engine's
    :class:`~repro.faults.retry.RetryPolicy` pays timeouts/backoff in
    simulated time.
``slowlink``
    Cluster network bandwidth is multiplied by ``magnitude`` (< 1) for
    ``duration`` epochs (congested or degraded link).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import FaultError

__all__ = ["FaultEvent", "FaultPlan", "FaultInjector", "FAULT_KINDS"]

FAULT_KINDS = ("halt", "crash", "straggler", "flaky", "slowlink")

#: Events that target one worker (the others are cluster-wide).
_WORKER_KINDS = ("crash", "straggler", "flaky")

#: Events active over a window of epochs (the others are instantaneous).
_WINDOW_KINDS = ("straggler", "flaky", "slowlink")


def _number(text):
    """Parse a schedule time: ``int`` when integral (epoch clocks),
    ``float`` otherwise (the fleet's seconds clock)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _integral(value):
    """Whether ``value`` is a whole number (a time on the epoch clock);
    ``nan`` and the infinities are not."""
    try:
        return value == int(value)
    except (OverflowError, ValueError):
        return False


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    epoch:
        First instant the fault affects — an integer epoch on the
        training clock, a (possibly fractional) simulated second on the
        fleet clock.
    worker:
        Target worker/replica for ``crash``/``straggler``/``flaky``;
        must be ``None`` for cluster-wide kinds.
    duration:
        How long a windowed fault stays active (``straggler``,
        ``flaky``, ``slowlink``), in the schedule's clock units.  For
        ``crash`` on the fleet clock it is the node's down time;
        the training injector (permanent crashes) ignores it.
    magnitude:
        Kind-specific intensity: stage-time multiplier (>= 1) for
        ``straggler``, per-message failure probability in [0, 1) for
        ``flaky``, bandwidth multiplier in (0, 1] for ``slowlink``.
    """

    kind: str
    epoch: int
    worker: int = None
    duration: int = 1
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        # ``nan`` passes every ``<`` / ``<=`` test below (``nan < 0`` is
        # False), so it is refused first.
        for name in ("epoch", "duration", "magnitude"):
            value = getattr(self, name)
            if value != value:
                raise FaultError(f"fault {name} must be a number, got nan")
        if self.epoch == math.inf:
            raise FaultError("fault epoch must be finite, got inf")
        if self.epoch < 0:
            raise FaultError(f"fault epoch must be >= 0, got {self.epoch}")
        if self.duration <= 0:
            raise FaultError(
                f"fault duration must be > 0, got {self.duration}")
        if self.kind in _WORKER_KINDS:
            if self.worker is None or self.worker < 0:
                raise FaultError(
                    f"{self.kind} fault needs a worker id >= 0")
        elif self.worker is not None:
            raise FaultError(f"{self.kind} fault takes no worker id")
        if self.kind == "straggler" and self.magnitude < 1.0:
            raise FaultError(
                f"straggler multiplier must be >= 1, got {self.magnitude}")
        if self.kind == "flaky" and not 0.0 <= self.magnitude < 1.0:
            raise FaultError(
                f"flaky failure probability must be in [0, 1), "
                f"got {self.magnitude}")
        if self.kind == "slowlink" and not 0.0 < self.magnitude <= 1.0:
            raise FaultError(
                f"slowlink bandwidth multiplier must be in (0, 1], "
                f"got {self.magnitude}")

    def describe(self):
        """Compact spec-string form (inverse of :meth:`FaultPlan.parse`)."""
        token = f"{self.kind}@{self.epoch:g}"
        if self.duration != 1 and (self.kind in _WINDOW_KINDS
                                   or self.kind == "crash"):
            token += f"+{self.duration:g}"
        if self.worker is not None:
            token += f":w{self.worker}"
        if self.kind == "straggler":
            token += f":x{self.magnitude:g}"
        elif self.kind == "flaky":
            token += f":p{self.magnitude:g}"
        elif self.kind == "slowlink":
            token += f":x{self.magnitude:g}"
        return token


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable schedule of faults and its compiled timeline.

    ``seed`` drives every probabilistic draw the injector makes (flaky
    fetch outcomes); the events themselves are fully explicit, so the
    timeline of *scheduled* faults needs no randomness at all.

    The events compile once, at construction, into ``crashes`` —
    ``(time, worker, duration)`` tuples in ascending order — and sorted
    ``(start, end, ...)`` window tuples.  :meth:`multipliers` and
    :meth:`failure_prob` walk those tuples at a time ``t`` on either
    clock (the fleet asks on every dispatch), multiplying overlapping
    windows in their sorted order, so an integer epoch and the same
    simulated second see bit-equal answers.
    """

    events: tuple = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        crashes, straggles, flakies, slowlinks = [], [], [], []
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise FaultError(
                    f"fault plan entries must be FaultEvent, "
                    f"got {type(event).__name__}")
            start = float(event.epoch)
            end = start + float(event.duration)
            magnitude = float(event.magnitude)
            if event.kind == "crash":
                crashes.append((start, event.worker,
                                float(event.duration)))
            elif event.kind == "straggler":
                straggles.append((start, end, event.worker, magnitude))
            elif event.kind == "flaky":
                flakies.append((start, end, event.worker, magnitude))
            elif event.kind == "slowlink":
                slowlinks.append((start, end, magnitude))
        object.__setattr__(self, "crashes", tuple(sorted(crashes)))
        object.__setattr__(self, "_straggles", tuple(sorted(straggles)))
        object.__setattr__(self, "_flakies", tuple(sorted(flakies)))
        object.__setattr__(self, "_slowlinks", tuple(sorted(slowlinks)))

    def multipliers(self, worker, t):
        """``(straggle, slowlink)`` multipliers active for ``worker`` at
        time ``t`` — both 1.0 outside any window, so billing is
        untouched on the healthy path.  Slowlinks are cluster-wide;
        ``worker=None`` asks for them alone."""
        straggle = 1.0
        for start, end, target, magnitude in self._straggles:
            if target == worker and start <= t < end:
                straggle *= magnitude
        slowlink = 1.0
        for start, end, magnitude in self._slowlinks:
            if start <= t < end:
                slowlink *= magnitude
        return straggle, slowlink

    def failure_prob(self, worker, t):
        """Probability that one of ``worker``'s remote fetch messages
        fails at time ``t`` (independent flaky windows compose)."""
        success = 1.0
        for start, end, target, probability in self._flakies:
            if target == worker and start <= t < end:
                success *= 1.0 - probability
        return 1.0 - success

    @classmethod
    def parse(cls, spec, seed=0):
        """Build a plan from a compact comma-separated spec string.

        Grammar (one token per event)::

            halt@T                      process crash at time T
            crash@T[+D]:wW              worker/replica W dies at T
                                        (down D on the fleet clock)
            straggler@T[+D]:wW:xM       worker W is M-times slower
            flaky@T[+D]:wW:pP           worker W's fetches fail w.p. P
            slowlink@T[+D]:xM           network bandwidth scaled by M

        Times are integer epochs on the training clock or simulated
        seconds (fractions allowed) on the fleet clock — the same
        grammar serves ``repro train --faults`` and ``repro bench
        fleet-chaos --schedule``.
        Example: ``"straggler@1+3:w0:x4,crash@2:w1,slowlink@3:x0.5"``.
        """
        events = []
        for token in str(spec).split(","):
            token = token.strip()
            if not token:
                continue
            head, _, rest = token.partition(":")
            kind, _, when = head.partition("@")
            if not when:
                raise FaultError(
                    f"bad fault token {token!r}: expected kind@epoch[...]")
            epoch_text, _, duration_text = when.partition("+")
            try:
                epoch = _number(epoch_text)
                duration = _number(duration_text) if duration_text else 1
            except ValueError:
                raise FaultError(
                    f"bad fault token {token!r}: time/duration must be "
                    f"numbers") from None
            worker = None
            magnitude = 1.0
            for part in (p for p in rest.split(":") if p):
                if not part.startswith(("w", "x", "p")):
                    raise FaultError(
                        f"bad fault token {token!r}: unknown field "
                        f"{part!r} (expected wN, xM, or pP)")
                try:
                    if part.startswith("w"):
                        worker = int(part[1:])
                    else:
                        magnitude = float(part[1:])
                except ValueError:
                    needs = "an integer" if part[0] == "w" else "a number"
                    raise FaultError(
                        f"bad fault token {token!r}: field {part!r} "
                        f"needs {needs}") from None
            try:
                events.append(FaultEvent(
                    kind=kind, epoch=epoch, worker=worker,
                    duration=duration, magnitude=magnitude))
            except FaultError as exc:
                raise FaultError(f"bad fault token {token!r}: {exc}") \
                    from None
        return cls(events=tuple(events), seed=seed)

    def describe(self):
        """The plan as a spec string plus its seed."""
        body = ",".join(e.describe() for e in self.events) or "(healthy)"
        return f"{body} [seed={self.seed}]"

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)


class FaultInjector:
    """Replays a :class:`FaultPlan` against the simulated epoch clock.

    The engine calls :meth:`begin_epoch` once per epoch (which fires
    scheduled halts), reads crashes and multipliers off the plan's
    timeline at that epoch, and draws fetch outcomes here.  All
    randomness lives in per-``(seed, epoch, worker)`` streams created
    at ``begin_epoch``, so the answer sequence is a pure function of
    the plan and the epoch — replayable across crash/resume and across
    runs.
    """

    def __init__(self, plan):
        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if not isinstance(plan, FaultPlan):
            raise FaultError(
                f"FaultInjector needs a FaultPlan or spec string, "
                f"got {type(plan).__name__}")
        for event in plan:
            # The shared grammar also serves the fleet's seconds clock;
            # the training injector runs on integer epochs only.
            if not (_integral(event.epoch)
                    and _integral(event.duration)):
                raise FaultError(
                    f"fault {event.describe()!r} uses fractional times "
                    f"(or an infinite one); the training injector runs "
                    f"on the integer epoch clock (fractional seconds "
                    f"belong to the fleet schedule)")
        self.plan = plan
        self.epoch = None
        self._fetch_rngs = {}
        self._disarmed_halts = set()
        # Counters over the injector's lifetime (reported by benchmarks).
        self.halts_fired = 0

    # ------------------------------------------------------------------
    # Epoch clock
    # ------------------------------------------------------------------
    def begin_epoch(self, epoch):
        """Advance to ``epoch``; raises :class:`FaultError` for a
        scheduled ``halt`` (the injected process crash)."""
        self.epoch = int(epoch)
        self._fetch_rngs = {}
        for event in self.plan:
            if (event.kind == "halt" and event.epoch == self.epoch
                    and event.epoch not in self._disarmed_halts):
                self.halts_fired += 1
                raise FaultError(
                    f"injected process halt at epoch {self.epoch} "
                    f"(fault plan: {event.describe()})")

    def disarm_for_resume(self, start_epoch):
        """Disarm the halts a resumed run has already survived.

        A resume implies the previous incarnation died at the first
        still-armed halt it reached — and because a checkpoint always
        precedes its halt epoch, that is the first halt at or after
        ``start_epoch``.  Every halt before ``start_epoch`` fired in an
        even earlier incarnation (epochs advance in order), so: disarm
        all halts up to ``start_epoch`` plus the first one after it.
        Later halts stay armed — each models its own one-time crash,
        needing its own resume."""
        for epoch in sorted(e.epoch for e in self.plan
                            if e.kind == "halt"):
            self._disarmed_halts.add(epoch)
            if epoch >= start_epoch:
                break

    def _require_epoch(self):
        if self.epoch is None:
            raise FaultError("FaultInjector used before begin_epoch()")

    # ------------------------------------------------------------------
    # Flaky fetches
    # ------------------------------------------------------------------
    def fetch_failure_prob(self, worker):
        """Probability that one of ``worker``'s remote fetch messages
        fails this epoch (the plan's timeline at :attr:`epoch`)."""
        self._require_epoch()
        return self.plan.failure_prob(worker, self.epoch)

    def fetch_attempt_fails(self, worker):
        """Draw one fetch-attempt outcome for ``worker`` this epoch.

        Draws come from a stream seeded by ``(plan seed, epoch,
        worker)``, so the outcome sequence depends only on how many
        draws this worker made this epoch — deterministic across runs
        and across checkpoint resume.
        """
        probability = self.fetch_failure_prob(worker)
        if probability <= 0.0:
            return False
        rng = self._fetch_rngs.get(worker)
        if rng is None:
            seq = np.random.SeedSequence(
                [self.plan.seed, self.epoch, int(worker)])
            rng = self._fetch_rngs[worker] = np.random.default_rng(seq)
        return bool(rng.random() < probability)
