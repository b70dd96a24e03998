"""Synthetic activity-trace generation.

The original traces (Viswanath et al.'s Facebook New Orleans wall posts and
Galuba et al.'s Twitter tweets) are not redistributable, so the experiments
run by default on synthetic substitutes that preserve the features the
algorithms actually consume:

* a heavy-tailed social graph (see :mod:`repro.graph.generators`);
* a heavy-tailed per-user activity volume (lognormal, mean configurable;
  the paper's filtered averages are ≈50 wall posts / user);
* **diurnal structure**: each user has a personal peak time-of-day drawn
  from a population mixture (evening-heavy, as measured for OSNs) and his
  activities cluster around it — this is what makes the FixedLength window
  placement and the Sporadic sessions meaningful;
* **skewed partner choice**: a user interacts mostly with a few favourite
  friends (Zipf over a random per-user ranking) — this is what gives the
  MostActive policy its signal.

Randomness is organised as **one independent stream per user**: user
``u``'s activities draw from ``derive_rng(seed, "synthesis", u)``
(:mod:`repro.seeding`), so a trace is a pure function of
``(graph, params, seed)`` *per user* — any subset of users can be
materialised on demand, in any order, in any process, without replaying
the streams of the users before them.  That property is what the sharded
dataset path (:mod:`repro.datasets.sharding`) is built on.

Draw-order contract.  The RNG calls this module makes on a user's
stream, and their order, *are* stream layout v2.  Per user, in order:

1. :meth:`DiurnalMixture.draw_peak` — ``random()`` for the component,
   then ``gauss`` for the personal peak;
2. ``shuffle`` of the full sorted partner list (the favourite ranking);
3. ``lognormvariate`` for the activity count;
4. ``choices(ranked, weights, k=count)`` for every receiver at once;
5. per activity, in receiver order: ``randrange(trace_days)`` for the
   day, then ``gauss(peak, diurnal_std_hours * HOUR_SECONDS)`` for the
   time of day.

:func:`user_receivers` stops after step 4; :func:`user_activities` runs
all five.  Changing a call, its arguments or its place in this order
changes every trace and must bump :data:`STREAM_VERSION`; hoisting a
lookup, binding a method or building the :class:`Activity` another way
does not, because the streams and the floats stay the same.

.. note::
   Stream layout v2 (``STREAM_VERSION = 2``) replaced the original
   single-``random.Random`` sequential generator.  Traces generated under
   v2 differ from v1 traces for the same seed; the v2 streams are pinned
   as canonical by ``tests/datasets/test_synthesis.py`` and, digest for
   digest, by ``tests/datasets/test_build_pins.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.datasets.schema import Activity, ActivityTrace, new_activity
from repro.graph.social_graph import FollowerGraph, SocialGraph, UserId
from repro.graph.stream import CsrRows
from repro.seeding import derive_rng
from repro.timeline.day import DAY_SECONDS, HOUR_SECONDS

#: Version of the per-user RNG stream layout.  Bump whenever the draw
#: order or the stream derivation changes — cache fingerprints include it
#: so stale sweep-cache entries can never alias across layouts.
STREAM_VERSION = 2

#: Salt separating synthesis streams from the other per-user streams
#: (online-time schedules use ``derive_rng(seed, user)``, placement
#: policies use ``derive_rng(seed, policy, user)``).
_STREAM_SALT = "synthesis"

#: Tolerance for mixture weights summing to 1.0 (components are often
#: written as short decimals whose sum drifts off 1.0, e.g. 3 × 0.333333).
_WEIGHT_SUM_TOLERANCE = 1e-4


@dataclass(frozen=True)
class DiurnalMixture:
    """A population mixture of daily activity peaks.

    Each component is ``(weight, peak_second_of_day, std_seconds)``; a user
    is assigned one component and a personal peak jittered around the
    component's.  The default mixture is evening-heavy with afternoon and
    late-night minorities, the shape reported for Facebook/Twitter usage.

    Weights must be positive and sum to 1.0 within a small tolerance;
    they are renormalised internally, so a mixture written as
    ``(0.333, 0.333, 0.333)``-style short decimals selects its last
    component with its true share rather than only on float fall-through.
    """

    components: Tuple[Tuple[float, float, float], ...] = (
        (0.55, 20.5 * HOUR_SECONDS, 1.5 * HOUR_SECONDS),  # evening
        (0.30, 14.0 * HOUR_SECONDS, 2.0 * HOUR_SECONDS),  # afternoon
        (0.15, 0.5 * HOUR_SECONDS, 2.0 * HOUR_SECONDS),  # night owls
    )

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        total = 0.0
        for weight, _peak, std in self.components:
            if weight <= 0.0:
                raise ValueError(
                    f"mixture weights must be positive, got {weight}"
                )
            if std < 0.0:
                raise ValueError(f"mixture std must be >= 0, got {std}")
            total += weight
        if abs(total - 1.0) > _WEIGHT_SUM_TOLERANCE:
            raise ValueError(
                f"mixture weights must sum to ~1.0, got {total!r}"
            )
        # Normalised cumulative weights with the last bucket pinned to
        # exactly 1.0, so draw_peak can never fall off the end no matter
        # how the partial sums round.
        acc = 0.0
        cumulative = []
        for weight, _peak, _std in self.components:
            acc += weight / total
            cumulative.append(acc)
        cumulative[-1] = 1.0
        object.__setattr__(self, "_cumulative", tuple(cumulative))

    def draw_peak(self, rng: random.Random) -> float:
        """A personal peak second-of-day for one user."""
        r = rng.random()
        for cum, (_weight, peak, std) in zip(
            self._cumulative, self.components
        ):
            if r <= cum:
                return (rng.gauss(peak, std)) % DAY_SECONDS
        raise AssertionError("unreachable: cumulative weights end at 1.0")


@dataclass(frozen=True)
class TraceParams:
    """Knobs of the synthetic trace generator."""

    #: Length of the trace in days (the Twitter trace spans two weeks).
    trace_days: int = 14
    #: Mean of the lognormal per-user created-activity count.
    activities_mean: float = 50.0
    #: Lognormal sigma; higher → heavier activity tail.
    activities_sigma: float = 0.6
    #: Spread of a user's activity instants around his personal peak.
    diurnal_std_hours: float = 2.5
    #: Zipf exponent of partner choice (0 → uniform partners).
    partner_zipf_alpha: float = 1.2
    #: Population mixture of daily peaks.
    mixture: DiurnalMixture = field(default_factory=DiurnalMixture)

    def __post_init__(self) -> None:
        if self.trace_days < 1:
            raise ValueError("trace_days must be >= 1")
        if self.activities_mean <= 0:
            raise ValueError("activities_mean must be positive")
        if self.partner_zipf_alpha < 0:
            raise ValueError("partner_zipf_alpha must be >= 0")


def user_stream(seed: int, user: UserId) -> random.Random:
    """The independent synthesis RNG stream of one user.

    Derived via :func:`repro.seeding.derive_seed` from
    ``(seed, "synthesis", user)`` — stable across processes, platforms
    and ``PYTHONHASHSEED``, and independent of every other user's stream.
    """
    if not isinstance(seed, int):
        raise TypeError(
            "synthesis seed must be an int (stream-per-user layout); "
            f"got {type(seed).__name__}"
        )
    return derive_rng(seed, _STREAM_SALT, user)


def _draw_activity_count(params: TraceParams, rng: random.Random) -> int:
    """Lognormal count with the configured mean (>= 1)."""
    sigma = params.activities_sigma
    mu = math.log(params.activities_mean) - sigma * sigma / 2.0
    return max(1, round(rng.lognormvariate(mu, sigma)))

def _zipf_partner_weights(
    partners: Sequence[UserId], alpha: float, rng: random.Random
) -> Tuple[List[UserId], List[float]]:
    """A per-user random favourite ranking with Zipf weights."""
    ranked = list(partners)
    rng.shuffle(ranked)
    weights = [1.0 / (rank ** alpha) for rank in range(1, len(ranked) + 1)]
    return ranked, weights


def _draw_receivers(
    partners: Sequence[UserId], params: TraceParams, rng: random.Random
) -> Tuple[float, List[UserId]]:
    """Steps 1-4 of the draw order: the user's peak and receiver list."""
    peak = params.mixture.draw_peak(rng)
    ranked, weights = _zipf_partner_weights(
        partners, params.partner_zipf_alpha, rng
    )
    count = _draw_activity_count(params, rng)
    return peak, rng.choices(ranked, weights=weights, k=count)


def user_receivers(
    partners: Sequence[UserId],
    params: TraceParams,
    seed: int,
    user: UserId,
) -> List[UserId]:
    """The receiver list of one user's activities, without timestamps.

    Consumes a prefix of the user's stream (peak, ranking, count,
    receivers); :func:`user_activities` continues the *same* stream with
    the timestamps, so the receivers returned here are exactly those of
    the full activity list.  The sharded dataset's survey pass uses this
    to run the activity filter without materialising timestamps.
    """
    if not partners:
        return []
    return _draw_receivers(partners, params, user_stream(seed, user))[1]


def user_activities(
    partners: Sequence[UserId],
    params: TraceParams,
    seed: int,
    user: UserId,
) -> List[Activity]:
    """All activities created by one user, from the user's own stream.

    ``partners`` must be the user's *full* sorted partner list in the
    source graph (friends for wall traces, followees for tweet traces) —
    the stream layout depends on it, so filtering partners changes the
    trace.  Filter activities afterwards instead (as
    :func:`repro.datasets.filters.filter_dataset` does).
    """
    if not partners:
        return []
    rng = user_stream(seed, user)
    peak, receivers = _draw_receivers(partners, params, rng)
    # Step 5 runs once per activity, so everything it reads is a local:
    # the two bound RNG methods, the constants, and the slot-writing
    # constructor.  The timestamp is ``day * DAY + (gauss % DAY)``,
    # drawing the day first, as the draw order requires.
    randrange = rng.randrange
    gauss = rng.gauss
    make = new_activity
    trace_days = params.trace_days
    std = params.diurnal_std_hours * HOUR_SECONDS
    day_seconds = DAY_SECONDS
    activities: List[Activity] = []
    append = activities.append
    for receiver in receivers:
        day = randrange(trace_days)
        timestamp = day * day_seconds + gauss(peak, std) % day_seconds
        append(make(timestamp, user, receiver))
    return activities


def survey_receiver_rows(
    partners_of,
    params: TraceParams,
    seed: int,
    num_users: int,
    *,
    window: int = 65536,
) -> CsrRows:
    """Windowed CSR of every user's receiver list (streaming survey).

    The §IV-A activity filter only needs *who received* each user's
    activities, not when — and :func:`user_receivers` reads exactly the
    prefix of the user's stream that determines that.  This helper walks
    users ``0..num_users-1`` in windows of at most ``window``, converting
    each window's receiver lists to a compact array before the next
    window starts, so the python-object working set is bounded by one
    window regardless of trace size.  Returns :class:`CsrRows` whose row
    ``u`` is user ``u``'s receiver list, identical to an unwindowed
    build.

    ``partners_of`` maps a user to his full sorted partner list (friends
    for wall traces, followees for tweet traces).
    """
    return CsrRows.build(
        lambda user: user_receivers(partners_of(user), params, seed, user),
        num_users,
        window=window,
    )


def synthesize_wall_trace(
    graph: SocialGraph,
    params: TraceParams,
    seed: int,
    *,
    users: Optional[Iterable[UserId]] = None,
) -> ActivityTrace:
    """Facebook-style trace: each user posts on his friends' walls.

    Every activity created by ``u`` lands on the wall of a friend chosen
    from ``u``'s Zipf-ranked favourites; users without friends create
    nothing (they fall to the activity filter, as in the real pipeline).

    ``users`` restricts generation to a subset (default: all graph
    users); because every user has an independent stream, the subset's
    activities are bit-identical to their slice of the full trace.
    """
    if users is None:
        users = graph.users()
    activities: List[Activity] = []
    for user in users:
        activities.extend(
            user_activities(
                sorted(graph.neighbors(user)), params, seed, user
            )
        )
    return ActivityTrace(activities)


def synthesize_tweet_trace(
    graph: FollowerGraph,
    params: TraceParams,
    seed: int,
    *,
    users: Optional[Iterable[UserId]] = None,
) -> ActivityTrace:
    """Twitter-style trace: directed tweets (mentions/replies).

    A tweet by ``u`` is directed at one of the users ``u`` follows — so the
    activity *received* by a user is created by his followers, i.e. by his
    replica candidates, mirroring the wall-post structure the metrics and
    the MostActive ranking expect.  Users following nobody tweet into the
    void and are skipped (they fall to the activity filter).
    """
    if users is None:
        users = graph.users()
    activities: List[Activity] = []
    for user in users:
        activities.extend(
            user_activities(
                sorted(graph.followees(user)), params, seed, user
            )
        )
    return ActivityTrace(activities)
