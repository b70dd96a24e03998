"""The execution context: knobs are validated once and reach every layer."""

import dataclasses

import pytest

from repro.experiments import experiment_ids, run_batch, run_experiment
from repro.experiments import figures
from repro.parallel import ParallelExecutor
from tests.experiments.test_config_and_registry import TINY

INVALID_KNOBS = [
    {"shards": 0},
    {"shards": -3},
]


@pytest.mark.parametrize("knobs", INVALID_KNOBS, ids=str)
@pytest.mark.parametrize("experiment_id", ["table1", "x2"])
def test_invalid_knobs_raise_before_any_work(experiment_id, knobs):
    with pytest.raises(ValueError):
        run_experiment(experiment_id, TINY, **knobs)


@pytest.mark.parametrize("knobs", INVALID_KNOBS, ids=str)
def test_invalid_knobs_rejected_by_batch(tmp_path, knobs):
    with pytest.raises(ValueError):
        run_batch(tmp_path / "out", scale=TINY, ids=["table1"], **knobs)
    assert not (tmp_path / "out").exists()


def test_execution_defaults_and_frozen():
    from repro.experiments import Execution

    ex = Execution()
    assert (ex.executor, ex.cache, ex.shards) == (None, None, 1)
    assert [f.name for f in dataclasses.fields(Execution)] == [
        "executor",
        "cache",
        "shards",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ex.shards = 2


#: Callables the experiments hand execution knobs to, and whether each
#: takes ``shards`` (besides ``executor``): a sweep as the shard count of
#: its ShardedDataset source, the replay as a keyword.  Names absent
#: from the module are skipped, so the spy covers whichever sweep entry
#: points exist.
_SHARDS = 2
_SWEEPS = (
    "sweep_grid",
    "sweep_replication_degree",
    "sweep_replication_degree_datasets",
    "sweep_session_length",
    "sweep_session_length_datasets",
    "sweep_user_degree",
    "sweep_user_degree_datasets",
)
_ACCEPTS = {
    **{name: True for name in _SWEEPS},
    "placement_sequences": False,
    "replay_trace": True,
}


def _shards_of(name, args, kwargs):
    if name in _SWEEPS:
        return getattr(args[0], "num_shards", None)
    return kwargs.get("shards")

#: Experiments that only characterise the datasets (no sweep/placement).
_NO_KNOB_CALLS = {"table1", "fig2"}


def test_every_experiment_forwards_the_knobs_it_accepts(monkeypatch):
    calls = []
    for name in _ACCEPTS:
        original = getattr(figures, name, None)
        if original is None:
            continue

        def spy(*args, _original=original, _name=name, **kwargs):
            calls.append((_name, args, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(figures, name, spy)
    dropped = []
    with ParallelExecutor() as executor:
        for eid in experiment_ids():
            calls.clear()
            run_experiment(eid, TINY, executor=executor, shards=_SHARDS)
            assert bool(calls) != (eid in _NO_KNOB_CALLS), eid
            for name, args, kwargs in calls:
                missing = []
                if _ACCEPTS[name] and _shards_of(name, args, kwargs) != _SHARDS:
                    missing.append("shards")
                if kwargs.get("executor") is not executor:
                    missing.append("executor")
                if missing:
                    dropped.append(f"{eid}: {name} dropped {missing}")
    assert not dropped, "\n".join(dropped)
