"""Batch compute plane: content-addressed caching of sweep results.

Several of the paper's figures are views over the same computation —
fig3/5/6/7 replay one Facebook ConRep degree sweep and plot different
metric columns, fig10/11 the Twitter counterpart.  :class:`SweepCache`
stores every computed (dataset, model, policy, cohort, degrees, seed,
repeats) series under a canonical SHA-256 content address, in memory for
the batch and optionally on disk (``--cache-dir``), so shared sweeps run
exactly once and every consumer slices the identical floats.  On disk it
also keeps the partial entries of a sweep still running, so a killed
sweep resumes from the views it finished.
"""

from repro.cache.keys import (
    CACHE_FORMAT_VERSION,
    dataset_fingerprint,
    partial_cells_key,
    point_query_key,
    replay_cache_key,
    sweep_cache_key,
)
from repro.cache.store import CacheStats, SweepCache

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "SweepCache",
    "dataset_fingerprint",
    "partial_cells_key",
    "point_query_key",
    "replay_cache_key",
    "sweep_cache_key",
]
