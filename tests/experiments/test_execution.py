"""The execution context: knobs are validated once and reach every layer."""

import dataclasses

import pytest

from repro.experiments import experiment_ids, run_batch, run_experiment
from repro.experiments import figures
from repro.parallel import ParallelExecutor
from tests.experiments.test_config_and_registry import TINY

INVALID_KNOBS = [
    {"shard_mode": "bogus"},
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
    from repro.experiments import COHORT_MODE, Execution

    ex = Execution()
    assert (ex.executor, ex.cache) == (None, None)
    assert (ex.shards, ex.shard_mode) == (1, COHORT_MODE)
    assert [f.name for f in dataclasses.fields(Execution)] == [
        "executor",
        "cache",
        "shards",
        "shard_mode",
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ex.shards = 2


#: Callables the experiments hand execution knobs to, and the knobs each
#: accepts (besides ``executor``).  Names absent from the module are
#: skipped, so the spy covers whichever sweep entry points exist.
_KNOBS = {"shards": 2}
_ACCEPTS = {
    "sweep_grid": ("shards",),
    "sweep_replication_degree": ("shards",),
    "sweep_replication_degree_datasets": ("shards",),
    "sweep_session_length": ("shards",),
    "sweep_session_length_datasets": ("shards",),
    "sweep_user_degree": ("shards",),
    "sweep_user_degree_datasets": ("shards",),
    "placement_sequences": (),
    "replay_trace": ("shards",),
}

#: Experiments that only characterise the datasets (no sweep/placement).
_NO_KNOB_CALLS = {"table1", "fig2"}


def test_every_experiment_forwards_the_knobs_it_accepts(monkeypatch):
    calls = []
    for name in _ACCEPTS:
        original = getattr(figures, name, None)
        if original is None:
            continue

        def spy(*args, _original=original, _name=name, **kwargs):
            calls.append((_name, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(figures, name, spy)
    dropped = []
    with ParallelExecutor() as executor:
        for eid in experiment_ids():
            calls.clear()
            run_experiment(eid, TINY, executor=executor, **_KNOBS)
            assert bool(calls) != (eid in _NO_KNOB_CALLS), eid
            for name, kwargs in calls:
                missing = [
                    k for k in _ACCEPTS[name] if kwargs.get(k) != _KNOBS[k]
                ]
                if kwargs.get("executor") is not executor:
                    missing.append("executor")
                if missing:
                    dropped.append(f"{eid}: {name} dropped {missing}")
    assert not dropped, "\n".join(dropped)
