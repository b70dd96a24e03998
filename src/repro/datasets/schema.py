"""Activity-trace schema.

The study consumes exactly three ingredients (paper §IV-A): the social
graph, the activities among users, and each activity's timestamp.  An
:class:`Activity` is one wall post (Facebook) or one directed tweet
(Twitter): it has a *creator*, a *receiver* (the profile it lands on) and an
absolute timestamp in seconds.

:class:`ActivityTrace` is an immutable, indexed container over activities;
:class:`Dataset` bundles the trace with its graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.graph.social_graph import FollowerGraph, SocialGraph, UserId
from repro.timeline.day import time_of_day

Graph = Union[SocialGraph, FollowerGraph]


@dataclass(frozen=True, order=True, slots=True)
class Activity:
    """One interaction: ``creator`` posts on ``receiver``'s profile.

    ``timestamp`` is absolute seconds (UNIX-epoch-like); metrics that live
    on the periodic day use :attr:`second_of_day`.  Slotted: millions of
    instances are resident at once on the scale path, and the per-object
    ``__dict__`` would otherwise dominate a shard's footprint.
    """

    timestamp: float
    creator: UserId
    receiver: UserId

    @property
    def second_of_day(self) -> float:
        """The activity instant projected onto the periodic day."""
        return time_of_day(self.timestamp)


_new_object = object.__new__
_set_timestamp = Activity.timestamp.__set__
_set_creator = Activity.creator.__set__
_set_receiver = Activity.receiver.__set__


def new_activity(
    timestamp: float, creator: UserId, receiver: UserId
) -> Activity:
    """``Activity(timestamp, creator, receiver)``, built at about half the
    cost.

    A frozen dataclass's ``__init__`` must assign every field through
    ``object.__setattr__``; this writes the three slots through their
    descriptors instead, which is what dominates the synthesis loop once
    its RNG draws are paid (one call per generated activity).  The result
    is an ordinary :class:`Activity` (equal, hashed, ordered, printed and
    pickled alike, and just as frozen), so the class needs no second
    form.  Arguments are stored as given, exactly as ``__init__`` does.
    """
    act = _new_object(Activity)
    _set_timestamp(act, timestamp)
    _set_creator(act, creator)
    _set_receiver(act, receiver)
    return act


class ActivityTrace:
    """An indexed, chronologically sorted collection of activities.

    The constructor sorts once into the :class:`Activity` order
    ``(timestamp, creator, receiver)``; ``window`` and ``restricted_to``
    keep a subsequence of the sorted tuple and never sort again.

    The per-user creator/receiver indexes are built lazily on first
    access: a trace that is only iterated (streaming digests, sharded
    materialisation) never pays for them, which matters when millions of
    activities are resident.
    """

    def __init__(self, activities: Iterable[Activity]):
        # Stable passes from the last field to the first give the
        # dataclass order, equal activities in input order, without a
        # Python ``__lt__`` call or a key tuple per activity.
        ordered = sorted(activities, key=attrgetter("receiver"))
        ordered.sort(key=attrgetter("creator"))
        ordered.sort(key=attrgetter("timestamp"))
        self._activities: Tuple[Activity, ...] = tuple(ordered)
        self._by_creator: Optional[Dict[UserId, List[Activity]]] = None
        self._by_receiver: Optional[Dict[UserId, List[Activity]]] = None

    @classmethod
    def _presorted(cls, activities: Iterable[Activity]) -> "ActivityTrace":
        """A trace over ``activities``, which are already in trace order."""
        trace = cls.__new__(cls)
        trace._activities = tuple(activities)
        trace._by_creator = None
        trace._by_receiver = None
        return trace

    def _index(self) -> None:
        if self._by_creator is not None:
            return
        by_creator: Dict[UserId, List[Activity]] = {}
        by_receiver: Dict[UserId, List[Activity]] = {}
        for act in self._activities:
            by_creator.setdefault(act.creator, []).append(act)
            by_receiver.setdefault(act.receiver, []).append(act)
        self._by_creator = by_creator
        self._by_receiver = by_receiver

    # -- bulk access -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._activities)

    def __iter__(self) -> Iterator[Activity]:
        return iter(self._activities)

    def __bool__(self) -> bool:
        return bool(self._activities)

    @property
    def activities(self) -> Tuple[Activity, ...]:
        return self._activities

    @property
    def begin(self) -> float:
        """Timestamp of the first activity (0 for an empty trace)."""
        return self._activities[0].timestamp if self._activities else 0.0

    @property
    def end(self) -> float:
        """Timestamp of the last activity (0 for an empty trace)."""
        return self._activities[-1].timestamp if self._activities else 0.0

    @property
    def span_seconds(self) -> float:
        return self.end - self.begin

    # -- per-user views --------------------------------------------------

    def created_by(self, user: UserId) -> Sequence[Activity]:
        """Activities the user performed (defines his online time under the
        Sporadic / continuous models)."""
        self._index()
        return self._by_creator.get(user, [])

    def received_by(self, user: UserId) -> Sequence[Activity]:
        """Activities landing on the user's profile (the demand that
        availability-on-demand-activity measures)."""
        self._index()
        return self._by_receiver.get(user, [])

    def activity_count(self, user: UserId) -> int:
        """Number of activities the user created (the paper filters on
        'less than 10 wall-posts or tweets')."""
        self._index()
        return len(self._by_creator.get(user, ()))

    def interaction_counts(self, user: UserId) -> Dict[UserId, int]:
        """Map friend → how many activities that friend created on
        ``user``'s profile.  This is the MostActive ranking signal: 'a
        friend who created most of a user's received activity is considered
        as the most active friend' (paper §IV-B)."""
        self._index()
        counts: Dict[UserId, int] = {}
        for act in self._by_receiver.get(user, ()):
            if act.creator != user:
                counts[act.creator] = counts.get(act.creator, 0) + 1
        return counts

    # -- transforms ---------------------------------------------------------

    def window(self, begin: float, end: float) -> "ActivityTrace":
        """Activities with ``begin <= timestamp < end`` (the paper's
        'pre-defined time frame in the past')."""
        return ActivityTrace._presorted(
            act for act in self._activities if begin <= act.timestamp < end
        )

    def restricted_to(self, users: Iterable[UserId]) -> "ActivityTrace":
        """Activities whose creator *and* receiver both survive filtering."""
        keep = set(users)
        return ActivityTrace._presorted(
            act
            for act in self._activities
            if act.creator in keep and act.receiver in keep
        )


@dataclass
class Dataset:
    """A named social graph plus its activity trace.

    ``kind`` selects replica-candidate semantics: ``"facebook"`` replicates
    on friends of an undirected graph, ``"twitter"`` on followers of a
    directed graph.
    """

    name: str
    kind: str
    graph: Graph
    trace: ActivityTrace
    notes: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("facebook", "twitter"):
            raise ValueError(f"unknown dataset kind: {self.kind!r}")
        expected_directed = self.kind == "twitter"
        if self.graph.directed != expected_directed:
            raise ValueError(
                f"{self.kind} dataset requires a "
                f"{'directed' if expected_directed else 'undirected'} graph"
            )

    @property
    def num_users(self) -> int:
        return self.graph.num_users

    def replica_candidates(self, user: UserId):
        return self.graph.replica_candidates(user)

    def degree(self, user: UserId) -> int:
        return self.graph.degree(user)

    def users_with_degree(
        self, degree: int, *, max_degree: Optional[int] = None
    ) -> List[UserId]:
        """The graph's degree bin (same call as on a ``ShardedDataset``)."""
        return self.graph.users_with_degree(degree, max_degree=max_degree)
