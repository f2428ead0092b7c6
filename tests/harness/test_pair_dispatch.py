"""Where ``run_pair`` runs its two simulations when a result cache is on.

Hits are resolved in the calling process, one ``load_run`` per run, and
only misses are dispatched: a fully cached pair forks no pool, a
half-cached one simulates its miss in-process, and a traced pair always
simulates both runs live.
"""

from dataclasses import asdict

import pytest

from repro.harness import EMULAB_DEFAULT, parallel, run_pair, run_single, runner
from repro.harness.cache import ResultCache, enable_cache, reset_cache_state
from repro.obs import CollectingTracer

PAIR = ("cubic", "proteus-s", EMULAB_DEFAULT)
DURATION_S = 4.0
SEED = 5


def _hex_fields(result) -> dict:
    return {name: float(value).hex() for name, value in asdict(result).items()}


def _pair(**kwargs):
    return run_pair(*PAIR, duration_s=DURATION_S, seed=SEED, jobs=2, **kwargs)


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a worker pool was forked")


@pytest.fixture
def cold(tmp_path):
    """The pair computed from an empty cache; the cache stays active."""
    enable_cache(tmp_path / "cache")
    yield _pair()
    reset_cache_state()


@pytest.fixture
def cache_calls(monkeypatch):
    """Counts ResultCache.load_run / store_run calls in this process."""
    calls = {"load_run": 0, "store_run": 0}
    for name in calls:
        original = getattr(ResultCache, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(ResultCache, name, counted)
    return calls


def test_fully_cached_pair_forks_no_pool(cold, cache_calls, monkeypatch):
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
    warm = _pair()
    assert _hex_fields(warm) == _hex_fields(cold)
    assert cache_calls == {"load_run": 2, "store_run": 0}


def test_half_cached_pair_simulates_only_the_miss(tmp_path, cache_calls, monkeypatch):
    enable_cache(tmp_path / "cold")
    try:
        cold = _pair()
        cache = enable_cache(tmp_path / "half")
        run_single(PAIR[0], PAIR[2], duration_s=DURATION_S, seed=SEED)  # the solo run
        cache_calls.update(load_run=0, store_run=0)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _NoPool)
        half = _pair()
    finally:
        reset_cache_state()
    assert _hex_fields(half) == _hex_fields(cold)
    assert cache_calls == {"load_run": 2, "store_run": 1}
    # run_single's miss, then the pair's solo hit and paired miss.
    assert (cache.hits, cache.misses) == (1, 2)


def test_traced_pair_simulates_both_runs_live(cold, cache_calls, monkeypatch):
    live_runs = []
    simulate = runner._run_flows_live

    def counted(*args, **kwargs):
        live_runs.append(args[0])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(runner, "_run_flows_live", counted)
    tracer = CollectingTracer()
    traced = _pair(tracer=tracer)
    assert _hex_fields(traced) == _hex_fields(cold)
    assert [len(specs) for specs in live_runs] == [1, 2]
    assert cache_calls["load_run"] == 0
    assert len(tracer) > 0
