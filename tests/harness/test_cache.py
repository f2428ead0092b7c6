"""Tests for the content-addressed result cache.

The contract: a cache hit is byte-identical to recomputation (the
determinism digest cannot tell them apart), any config/seed/source
change is a miss, and a corrupt entry silently recomputes.
"""

import json
import multiprocessing
from array import array

import pytest

from repro.devtools import stats_digest
from repro.harness import FlowSpec, LinkConfig, run_flows
from repro.harness import cache as cache_mod
from repro.harness.cache import (
    SCHEMA_VERSION,
    ResultCache,
    disable_cache,
    enable_cache,
    reset_cache_state,
    source_digest,
    stats_from_record,
    stats_to_record,
)
from repro.sim import FlowStats

CONFIG = LinkConfig(bandwidth_mbps=10.0, rtt_ms=40.0, buffer_kb=75.0, loss_rate=0.01)
SPECS = [FlowSpec("vivace")]
DURATION_S = 4.0


@pytest.fixture
def cache(tmp_path):
    cache = enable_cache(tmp_path / "cache")
    yield cache
    reset_cache_state()


def test_hit_on_identical_config_and_seed(cache):
    cold = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)
    warm = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert (cache.hits, cache.misses) == (1, 1)
    # Byte-identical round-trip: the determinism digest cannot tell a
    # cache rebuild from a live run.
    assert stats_digest(warm.stats) == stats_digest(cold.stats)
    # Cache rebuilds carry no live topology.
    assert cold.dumbbell is not None
    assert warm.dumbbell is None


def test_miss_after_config_change(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    run_flows(SPECS, CONFIG.with_loss(0.02), duration_s=DURATION_S, seed=7)
    assert cache.hits == 0
    assert cache.misses == 2


def test_miss_after_seed_change(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=8)
    assert cache.hits == 0
    assert cache.misses == 2


def test_miss_after_source_digest_change(cache, monkeypatch):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    # Simulate editing the simulator source: every key must change.
    monkeypatch.setattr(cache_mod, "_SOURCE_DIGEST", "0" * 64)
    result = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.hits == 0
    assert cache.misses == 2
    assert result.dumbbell is not None  # recomputed live


def test_corrupt_entry_falls_back_to_recompute(cache):
    first = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    entry.write_text("{ not json")
    again = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.hits == 0  # the torn entry never counted as a hit
    assert again.dumbbell is not None
    assert stats_digest(again.stats) == stats_digest(first.stats)
    # The recompute healed the entry.
    healed = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.hits == 1
    assert stats_digest(healed.stats) == stats_digest(first.stats)


def test_truncated_record_falls_back_to_recompute(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    # Valid JSON under the current schema, wrong shape: stats records
    # missing fields.
    entry.write_text(json.dumps({"schema": SCHEMA_VERSION, "stats": [{"flow_id": 1}]}))
    again = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.hits == 0
    assert again.dumbbell is not None


def test_corrupt_entry_is_quarantined(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    entry.write_text("{ not json")
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert cache.quarantined == 1
    # The torn file was moved aside for post-mortems, not deleted...
    [corpse] = list(cache.root.rglob("*.corrupt"))
    assert corpse.read_text() == "{ not json"
    # ...and the recompute healed the original path.
    assert entry.exists()
    assert cache.stats() == {
        "hits": 0, "misses": 2, "stores": 2, "quarantined": 1,
    }


def test_quarantine_counted_once_per_entry(cache):
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    entry.write_text(json.dumps({"schema": SCHEMA_VERSION, "stats": [{"flow_id": 1}]}))
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)  # quarantines + heals
    run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)  # clean hit
    assert cache.quarantined == 1
    assert cache.hits == 1


def _flow_without_samples():
    """A flow that never got an ACK nor lost a packet: empty series."""
    stats = FlowStats(flow_id=9)
    stats.start_time = 2.5
    stats.packets_sent = 3
    return stats


def test_stats_record_roundtrip_is_exact():
    result = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=3)
    for stats in [*result.stats, _flow_without_samples()]:
        rebuilt = stats_from_record(json.loads(json.dumps(stats_to_record(stats))))
        assert stats_digest([rebuilt]) == stats_digest([stats])
        for name in ("ack_times", "acked_bytes", "rtts", "loss_times"):
            assert getattr(rebuilt, name) == getattr(stats, name)
            assert getattr(rebuilt, name).typecode == getattr(stats, name).typecode
        assert rebuilt.start_time == stats.start_time
        assert rebuilt.end_time == stats.end_time
        assert rebuilt.packets_sent == stats.packets_sent
        assert rebuilt.first_delivery == stats.first_delivery
        assert rebuilt.last_delivery == stats.last_delivery
    assert len(result.stats[0].loss_times) > 0  # the lossy link really lost


def test_sample_series_encoding_is_pinned():
    # Little-endian IEEE-754 doubles and int64s, base64: the same bytes
    # on every host, so a cache directory is portable.
    stats = FlowStats(flow_id=1)
    stats.ack_times = array("d", [1.0, 0.5])
    stats.acked_bytes = array("q", [1500])
    record = stats_to_record(stats)
    assert record["ack_times"] == "AAAAAAAA8D8AAAAAAADgPw=="
    assert record["acked_bytes"] == "3AUAAAAAAAA="
    assert record["rtts"] == record["loss_times"] == ""


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda text: text[:-1], id="truncated-base64"),
        # 12 bytes of valid base64: not a whole number of 8-byte items.
        pytest.param(lambda text: "AAAAAAAAAAAAAAAA", id="partial-item"),
    ],
)
def test_undecodable_series_is_quarantined_and_recomputed(cache, damage):
    first = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    [entry] = list(cache.root.rglob("*.json"))
    record = json.loads(entry.read_text())
    assert record["schema"] == SCHEMA_VERSION
    record["stats"][0]["ack_times"] = damage(record["stats"][0]["ack_times"])
    entry.write_text(json.dumps(record))
    again = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
    assert again.dumbbell is not None  # recomputed live
    assert stats_digest(again.stats) == stats_digest(first.stats)
    assert cache.stats() == {"hits": 0, "misses": 2, "stores": 2, "quarantined": 1}
    assert len(list(cache.root.rglob("*.corrupt"))) == 1


def _store_repeatedly(root, key: str, record: dict, rounds: int, start, errors) -> None:
    cache = ResultCache(root)
    failures = 0
    start.wait(timeout=60)  # both writers begin together
    for _ in range(rounds):
        try:
            cache.store(key, record)
        except OSError:
            failures += 1
    errors.put(failures)


def test_concurrent_stores_of_one_key_never_fail(tmp_path):
    stats = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7).stats
    record = {"stats": [stats_to_record(s) for s in stats]}
    key = "ab" + "0" * 62
    context = multiprocessing.get_context("spawn")
    start, errors = context.Barrier(2), context.Queue()
    writers = [
        context.Process(
            target=_store_repeatedly, args=(tmp_path, key, record, 300, start, errors)
        )
        for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    # Drain the queue before joining its writers.
    failures = [errors.get(timeout=120) for _ in writers]
    for writer in writers:
        writer.join(timeout=30)
    assert [writer.exitcode for writer in writers] == [0, 0]
    assert failures == [0, 0]
    cache = ResultCache(tmp_path)
    loaded = cache.load_run(key)
    assert loaded is not None
    assert stats_digest(loaded[0]) == stats_digest(stats)
    # No writer left a temporary file behind.
    assert [path.name for path in (tmp_path / "ab").iterdir()] == [f"{key}.json"]


def test_source_digest_is_stable_and_sensitive(monkeypatch):
    first = source_digest()
    assert len(first) == 64
    monkeypatch.setattr(cache_mod, "_SOURCE_DIGEST", None)
    # Recomputing from disk reproduces the same digest.
    assert source_digest() == first


def test_disable_cache_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    reset_cache_state()
    try:
        disable_cache()
        result = run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
        assert result.dumbbell is not None
        assert not (tmp_path / "envcache").exists()
    finally:
        reset_cache_state()


def test_env_enables_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    reset_cache_state()
    try:
        run_flows(SPECS, CONFIG, duration_s=DURATION_S, seed=7)
        assert (tmp_path / "envcache").exists()
    finally:
        reset_cache_state()


def test_key_for_ignores_dict_order(tmp_path):
    cache = ResultCache(tmp_path)
    a = cache.key_for({"x": 1, "y": 2})
    b = cache.key_for({"y": 2, "x": 1})
    assert a == b
    assert a != cache.key_for({"x": 1, "y": 3})
