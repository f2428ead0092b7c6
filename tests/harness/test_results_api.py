"""The unified results API: keyword-only tails and the Result protocol."""

import json

import pytest

from repro.harness import (
    EMULAB_DEFAULT,
    FlowSpec,
    PairResult,
    Result,
    StreamingResult,
    run_flows,
    run_homogeneous,
    run_many,
    run_pair,
    run_single,
    run_streaming,
    synthesize_snapshot,
    write_result_json,
)

CONFIG = EMULAB_DEFAULT


@pytest.fixture(scope="module")
def short_run():
    return run_flows([FlowSpec("cubic")], CONFIG, duration_s=6.0, seed=3)


# ----------------------------------------------------------------------
# Keyword-only tail arguments
# ----------------------------------------------------------------------
def test_positional_tail_warns_and_matches_keyword(short_run):
    # The tail no longer warns: a positional tail is a TypeError before
    # anything runs, and the keyword form reproduces the same run.
    with pytest.raises(TypeError, match="positional argument"):
        run_flows([FlowSpec("cubic")], CONFIG, 6.0, 3)
    keyword = run_flows([FlowSpec("cubic")], CONFIG, duration_s=6.0, seed=3)
    assert keyword.throughputs_mbps() == short_run.throughputs_mbps()
    assert keyword.duration_s == short_run.duration_s


def test_too_many_positionals_is_an_error():
    # Everything after the scenario arguments is keyword-only: a
    # positional tail argument is a TypeError at every entry point.
    calls = [
        lambda: run_flows([FlowSpec("cubic")], CONFIG, 6.0),
        lambda: run_single("cubic", CONFIG, 5.0),
        lambda: run_pair("cubic", "proteus-s", CONFIG, 6.0),
        lambda: run_homogeneous("cubic", 2, CONFIG, 1.0),
        lambda: run_many("cubic", "proteus-s", CONFIG, 10),
        lambda: run_streaming([], "cubic", CONFIG, 5.0),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="positional argument"):
            call()


def test_run_single_shim():
    # run_single takes its tail by keyword only; the keyword call is the
    # same run as one flow through run_flows.
    with pytest.raises(TypeError, match="positional argument"):
        run_single("cubic", CONFIG, 5.0, 2)
    keyword = run_single("cubic", CONFIG, duration_s=5.0, seed=2)
    flows = run_flows([FlowSpec("cubic")], CONFIG, duration_s=5.0, seed=2)
    assert keyword.throughputs_mbps() == flows.throughputs_mbps()


def test_run_homogeneous_shim():
    with pytest.raises(TypeError, match="positional argument"):
        run_homogeneous("cubic", 2, CONFIG, 1.0, 4.0, 2)
    keyword = run_homogeneous(
        "cubic", 2, CONFIG, stagger_s=1.0, measure_s=4.0, seed=2
    )
    assert len(keyword.throughputs_mbps()) == 2
    assert all(mbps > 0 for mbps in keyword.throughputs_mbps())


def test_run_pair_shim():
    with pytest.raises(TypeError, match="positional argument"):
        run_pair("cubic", "proteus-s", CONFIG, 6.0, 1.0, 2, 1)
    keyword = run_pair(
        "cubic", "proteus-s", CONFIG,
        duration_s=6.0, scavenger_start_s=1.0, seed=2, jobs=1,
    )
    assert isinstance(keyword, PairResult)
    assert keyword.primary_solo_mbps > 0


def test_positional_and_keyword_conflict_is_an_error():
    with pytest.raises(TypeError, match="positional argument"):
        run_flows([FlowSpec("cubic")], CONFIG, 6.0, duration_s=6.0)


def test_keyword_calls_do_not_warn(recwarn, short_run):
    run_flows([FlowSpec("cubic")], CONFIG, duration_s=6.0, seed=3)
    deprecations = [
        w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
    ]
    assert deprecations == []


# ----------------------------------------------------------------------
# Result protocol conformance
# ----------------------------------------------------------------------
def _assert_result_contract(result, kind):
    assert isinstance(result, Result)
    summary = result.summary()
    assert isinstance(summary, dict) and summary
    record = result.to_dict()
    assert record["kind"] == kind
    snapshot = result.metrics
    assert set(snapshot) == {"counters", "gauges", "histograms"}
    json.dumps(record)  # JSON-safe all the way down


def test_run_result_conforms(short_run):
    _assert_result_contract(short_run, "run")
    gauges = short_run.metrics["gauges"]
    assert "run.utilization" in gauges


def test_pair_result_conforms():
    pair = PairResult(
        primary_solo_mbps=40.0,
        primary_with_scavenger_mbps=38.0,
        scavenger_mbps=5.0,
        primary_throughput_ratio=0.95,
        utilization=0.86,
        primary_rtt_ratio_95th=1.1,
    )
    _assert_result_contract(pair, "pair")
    assert pair.metrics["gauges"]["pair.utilization"] == 0.86


def test_streaming_result_conforms():
    streaming = StreamingResult(
        video_name="bbb",
        average_bitrate_mbps=4.2,
        rebuffer_ratio=0.01,
        chunks_delivered=30,
        startup_delay_s=0.8,
    )
    _assert_result_contract(streaming, "streaming")
    assert streaming.metrics["counters"]["streaming.chunks_delivered"] == 30


def test_cached_result_conforms(tmp_path):
    from repro.harness import disable_cache, enable_cache

    enable_cache(tmp_path / "cache")
    try:
        live = run_flows([FlowSpec("cubic")], CONFIG, duration_s=4.0, seed=9)
        warm = run_flows([FlowSpec("cubic")], CONFIG, duration_s=4.0, seed=9)
    finally:
        disable_cache()
    assert warm.dumbbell is None  # really a cache rebuild
    _assert_result_contract(warm, "run")
    # The snapshot survives the cache round-trip byte-identically,
    # including link-level series the rebuilt result cannot recompute.
    assert warm.metrics == live.metrics
    assert any(k.startswith("link.") for k in warm.metrics["counters"])


def test_write_result_json_for_every_kind(tmp_path, short_run):
    pair = PairResult(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    streaming = StreamingResult("v", 1.0, 0.0, 1, None)
    for i, result in enumerate((short_run, pair, streaming)):
        path = tmp_path / f"result{i}.json"
        write_result_json(path, result)
        loaded = json.loads(path.read_text())
        assert loaded["kind"] == result.to_dict()["kind"]
    with pytest.raises(TypeError):
        write_result_json(tmp_path / "bad.json", object())


def test_synthesize_snapshot_shape():
    snapshot = synthesize_snapshot(gauges={"b": 2.0, "a": 1.0}, counters={"c": 3})
    assert list(snapshot["gauges"]) == ["a", "b"]
    assert snapshot["counters"] == {"c": 3}
    assert snapshot["histograms"] == {}
    assert synthesize_snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
