#!/usr/bin/env python3
"""Run the decentralized OSN in the discrete-event simulator.

Places replicas for the degree-10 cohort, boots one peer node per user
cycling online/offline on its schedule, replays the activity trace as
profile writes with owner-seeded anti-entropy between replicas, and
compares what the simulator *measured* with what the closed-form metrics
*predicted* — per user.

Run:  python examples/des_replay.py
"""

from repro import (
    CONREP,
    DecentralizedOSN,
    FixedLengthModel,
    ReplayConfig,
    compute_schedules,
    evaluate_user,
    make_policy,
    select_cohort,
    synthetic_facebook,
)
from repro.core import placement_sequences
from repro.experiments import format_table


def main() -> None:
    dataset = synthetic_facebook(800, seed=9)
    model = FixedLengthModel(8)
    schedules = compute_schedules(dataset, model, seed=0)
    users = select_cohort(dataset, 10, max_users=10)
    sequences = placement_sequences(
        dataset,
        schedules,
        users,
        make_policy("maxav"),
        mode=CONREP,
        max_degree=3,
        seed=0,
    )

    osn = DecentralizedOSN(
        dataset,
        schedules,
        sequences,
        config=ReplayConfig(days=3, sample_every=600),
        tracked_profiles=users,
    )
    stats = osn.run()

    rows = []
    for user in users:
        analytic = evaluate_user(dataset, schedules, user, sequences[user])
        rows.append(
            (
                user,
                len(sequences[user]),
                round(analytic.availability, 3),
                round(stats.availability_of(user), 3),
                round(analytic.aod_activity, 3),
                round(stats.write_service_rate(user), 3)
                if user in stats.writes
                else None,
            )
        )
    print(f"simulated {osn.events_replayed} events over 3 days")
    print(
        format_table(
            (
                "user",
                "replicas",
                "avail (analytic)",
                "avail (measured)",
                "aod-act (analytic)",
                "write rate (measured)",
            ),
            rows,
        )
    )
    print(
        f"\npropagation: mean {stats.mean_propagation_delay_hours:.2f} h, "
        f"max {stats.max_propagation_delay_hours:.2f} h "
        f"({stats.incomplete_updates} updates still in flight); "
        f"{stats.consistent_profiles}/{stats.tracked_profiles} profiles "
        "fully consistent at shutdown"
    )


if __name__ == "__main__":
    main()
