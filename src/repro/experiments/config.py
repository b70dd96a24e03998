"""Experiment scales and shared experiment configuration.

Every experiment runs at a :class:`ExperimentScale`.  ``BENCH`` is sized so
that a single figure regenerates in seconds on a laptop; ``FULL`` matches
the paper's dataset sizes and repeat count (minutes per figure).  Both use
the same code path — only sizes, cohort caps and repeat counts differ.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.datasets import (
    Dataset,
    PAPER_FACEBOOK_USERS,
    PAPER_TWITTER_USERS,
    ShardedDataset,
    SyntheticSpec,
    synthetic_facebook,
    synthetic_twitter,
)


@dataclass(frozen=True)
class ExperimentScale:
    """Sizing knobs shared by all experiments."""

    name: str
    #: Synthetic dataset sizes (pre-filter user counts).
    facebook_users: int
    twitter_users: int
    #: The paper's cohort: users with exactly this many candidates.
    cohort_degree: int = 10
    #: Cap on cohort size (None = use the whole cohort, as the paper does).
    max_cohort_users: int = None
    #: Repeat-and-average count for randomised runs (paper: 5).
    repeats: int = 5
    #: Base RNG seed.
    seed: int = 42

    def __post_init__(self) -> None:
        if self.facebook_users < 100 or self.twitter_users < 100:
            raise ValueError("scales below 100 users are not meaningful")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


#: Seconds-per-figure scale used by the benchmark harness and tests.
BENCH = ExperimentScale(
    name="bench",
    facebook_users=1500,
    twitter_users=1500,
    max_cohort_users=20,
    repeats=2,
)

#: Paper-scale runs (dataset sizes from §IV-A, 5 repeats).
FULL = ExperimentScale(
    name="full",
    facebook_users=PAPER_FACEBOOK_USERS,
    twitter_users=PAPER_TWITTER_USERS,
    repeats=5,
)

_SCALES = {"bench": BENCH, "full": FULL}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale by name."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None


def _resolve(scale) -> ExperimentScale:
    return get_scale(scale) if isinstance(scale, str) else scale


@functools.lru_cache(maxsize=8)
def _facebook(users: int, seed: int) -> Dataset:
    return synthetic_facebook(users, seed=seed)


@functools.lru_cache(maxsize=8)
def _twitter(users: int, seed: int) -> Dataset:
    return synthetic_twitter(users, seed=seed)


def facebook_dataset(scale) -> Dataset:
    """The (cached) synthetic Facebook dataset for a scale (by name or
    :class:`ExperimentScale` — custom scales are cached too)."""
    scale = _resolve(scale)
    return _facebook(scale.facebook_users, scale.seed)


def twitter_dataset(scale) -> Dataset:
    """The (cached) synthetic Twitter dataset for a scale."""
    scale = _resolve(scale)
    return _twitter(scale.twitter_users, scale.seed)


@functools.lru_cache(maxsize=8)
def _sharded(kind: str, users: int, seed: int, num_shards: int) -> ShardedDataset:
    return ShardedDataset(
        SyntheticSpec(kind=kind, num_users=users, seed=seed), num_shards
    )


def facebook_sharded(scale, num_shards: int) -> ShardedDataset:
    """The (cached) sharded view of the scale's Facebook dataset.

    Built from a :class:`SyntheticSpec` whose defaults match
    :func:`repro.datasets.synthetic_facebook`, so shard datasets carry
    the same users, candidates and activities as :func:`facebook_dataset`
    — sweeps over it equal whole-dataset ones bit for bit.
    """
    scale = _resolve(scale)
    return _sharded("facebook", scale.facebook_users, scale.seed, num_shards)


def twitter_sharded(scale, num_shards: int) -> ShardedDataset:
    """The (cached) sharded view of the scale's Twitter dataset."""
    scale = _resolve(scale)
    return _sharded("twitter", scale.twitter_users, scale.seed, num_shards)
