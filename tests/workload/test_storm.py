"""Ticket-storm generation and the storm load driver."""

import pytest

from repro.workload.storm import (
    STORM_MACHINES,
    STORM_USERS,
    generate_storm,
    run_storm_sharded,
)


class TestGenerateStorm:
    def test_deterministic_for_a_seed(self):
        assert generate_storm(n=40, seed=3) == generate_storm(n=40, seed=3)
        assert generate_storm(n=40, seed=3) != generate_storm(n=40, seed=4)

    def test_duplicate_rate_bounds_unique_texts(self):
        storm = generate_storm(n=100, seed=11, duplicate_rate=0.9)
        assert len(storm) == 100
        assert len({t.text for t in storm}) <= 10

    def test_zero_duplicate_rate_is_all_unique(self):
        storm = generate_storm(n=30, seed=11, duplicate_rate=0.0)
        assert len({t.text for t in storm}) == 30

    def test_duplicate_rate_validated(self):
        with pytest.raises(ValueError):
            generate_storm(n=10, duplicate_rate=1.0)
        with pytest.raises(ValueError):
            generate_storm(n=10, duplicate_rate=-0.1)

    def test_load_spreads_over_machines_and_users(self):
        storm = generate_storm(n=64, seed=5)
        assert {t.machine for t in storm} == set(STORM_MACHINES)
        assert {t.reporter for t in storm} == set(STORM_USERS)

    def test_every_ticket_carries_a_class_label(self):
        assert all(t.true_class for t in generate_storm(n=20, seed=5))


class TestStormDrivers:
    """End-to-end smoke: the driver serves a small storm error-free."""

    @pytest.fixture(scope="class")
    def storm(self):
        return generate_storm(n=12, seed=11, duplicate_rate=0.5,
                              machines=("ws-01", "ws-02"),
                              users=("alice", "bob"))

    def test_sharded_driver(self, storm):
        report = run_storm_sharded(storm, shards=2, pool_size=1)
        assert report.workers == "thread"
        assert report.tickets == 12
        assert report.errors == 0
        assert report.shards >= 1
        assert report.pool_hit_rate > 0.9  # prewarmed: leases hit the pool

    def test_sharded_driver_process_workers(self, storm):
        report = run_storm_sharded(storm, shards=2, pool_size=1,
                                   workers="process")
        assert report.workers == "process"
        assert report.tickets == 12
        assert report.errors == 0
        assert report.pool_hit_rate > 0.9

    def test_report_to_dict_is_flat(self, storm):
        row = run_storm_sharded(storm, shards=2, pool_size=1).to_dict()
        assert row["workers"] == "thread"
        assert row["tickets"] == 12 and row["tickets_per_s"] > 0
        assert set(row) == {"tickets", "unique_texts", "elapsed_s",
                            "tickets_per_s", "errors", "shards",
                            "pool_hit_rate", "workers"}
