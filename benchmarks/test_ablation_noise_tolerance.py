"""Ablation: the §5 noise-tolerance mechanisms, one at a time.

The paper's "Note" paragraph in §5 sketches each mechanism's role but
shows no numbers ("we do not have enough space").  This bench fills that
gap: Proteus-P/S throughput on a clean and a noisy bottleneck with each
mechanism disabled individually, plus all-on and all-off.

Expected qualitative roles (per the paper):
* regression-error tolerance — needed to saturate even a stable link;
* trending tolerance — latency sensitivity (here: solo latency kept low);
* per-ACK filter + majority rule — help mostly in highly dynamic
  (noisy) networks.
"""

from __future__ import annotations

from dataclasses import replace

from _common import run_once, scaled

from repro.core import NoiseToleranceConfig
from repro.harness import EMULAB_DEFAULT, print_table
from repro.protocols import ProteusSender
from repro.sim import Dumbbell, Simulator, make_rng, wifi_noise

ALL_ON = NoiseToleranceConfig()
VARIANTS = {
    "all-on": ALL_ON,
    "no-ack-filter": replace(ALL_ON, ack_filter=False),
    "no-regression": replace(ALL_ON, regression_tolerance=False),
    "no-trending": replace(ALL_ON, trending_tolerance=False),
    "no-majority": replace(ALL_ON, majority_rule=False),
    "all-off": NoiseToleranceConfig(
        ack_filter=False,
        regression_tolerance=False,
        trending_tolerance=False,
        majority_rule=False,
    ),
}


def run_solo(config_name: str, noisy: bool, duration: float) -> tuple[float, float]:
    sim = Simulator()
    dumbbell = Dumbbell(
        sim,
        bandwidth_bps=EMULAB_DEFAULT.bandwidth_bps,
        rtt_s=EMULAB_DEFAULT.rtt_s,
        buffer_bytes=EMULAB_DEFAULT.buffer_bytes,
        noise=wifi_noise(1.5) if noisy else None,
        reverse_noise=wifi_noise(1.5) if noisy else None,
        rng=make_rng(15),
    )
    sender = ProteusSender("proteus-s", noise_config=VARIANTS[config_name])
    flow = dumbbell.add_flow(sender)
    sim.run(until=duration)
    window = (duration * 0.4, duration)
    throughput = flow.stats.throughput_bps(*window) / 1e6
    p95 = flow.stats.rtt_percentile(95, *window)
    return throughput, p95


def experiment():
    duration = scaled(25.0)
    results = {}
    for name in VARIANTS:
        results[(name, "clean")] = run_solo(name, noisy=False, duration=duration)
        results[(name, "noisy")] = run_solo(name, noisy=True, duration=duration)
    return results


def test_ablation_noise_tolerance(benchmark):
    results = run_once(benchmark, experiment)

    rows = []
    for name in VARIANTS:
        clean_thr, clean_p95 = results[(name, "clean")]
        noisy_thr, noisy_p95 = results[(name, "noisy")]
        rows.append(
            (
                name,
                f"{clean_thr:.1f}",
                f"{clean_p95 * 1e3:.1f}",
                f"{noisy_thr:.1f}",
                f"{noisy_p95 * 1e3:.1f}",
            )
        )
    print_table(
        ["variant", "clean Mbps", "clean p95 ms", "noisy Mbps", "noisy p95 ms"],
        rows,
        title="Ablation: Proteus-S solo with tolerance mechanisms toggled",
    )

    all_on_clean = results[("all-on", "clean")][0]
    all_on_noisy = results[("all-on", "noisy")][0]
    all_off_noisy = results[("all-off", "noisy")][0]
    # The full mechanism set saturates the clean link...
    assert all_on_clean > 40.0
    # ...and holds most of it under heavy noise.
    assert all_on_noisy > 0.5 * all_on_clean
    # Under noise, the full set beats the bare controller.
    assert all_on_noisy >= 0.9 * all_off_noisy
