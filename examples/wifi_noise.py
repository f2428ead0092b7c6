#!/usr/bin/env python
"""Scenario: scavenging on a noisy WiFi-like uplink (§5, §6.2.1).

RTT deviation is Proteus-S's competition signal — but WiFi MAC
scheduling produces deviation with no competition at all.  This example
runs Proteus-S on a noisy link with all noise-tolerance mechanisms
enabled, then with them disabled, and alongside a primary BBR flow, to
show the §5 machinery earning its keep: tolerate channel noise, still
yield to real competition.

Run:  python examples/wifi_noise.py
"""

from repro.core import NoiseToleranceConfig
from repro.harness import print_table
from repro.protocols import BBRSender, ProteusSender
from repro.sim import Dumbbell, Simulator, make_rng, mbps, wifi_noise

LINK_MBPS = 30.0
RTT_S = 0.060
BUFFER_BYTES = 450e3
DURATION_S = 40.0


def run_solo(noise_config: NoiseToleranceConfig | None, severity: float) -> float:
    sim = Simulator()
    dumbbell = Dumbbell(
        sim,
        bandwidth_bps=mbps(LINK_MBPS),
        rtt_s=RTT_S,
        buffer_bytes=BUFFER_BYTES,
        noise=wifi_noise(severity),
        reverse_noise=wifi_noise(severity),
        rng=make_rng(5),
    )
    sender = ProteusSender("proteus-s", noise_config=noise_config)
    flow = dumbbell.add_flow(sender)
    sim.run(until=DURATION_S)
    return flow.stats.throughput_bps(DURATION_S / 2, DURATION_S) / 1e6


def run_vs_bbr(severity: float) -> tuple[float, float]:
    sim = Simulator()
    dumbbell = Dumbbell(
        sim,
        bandwidth_bps=mbps(LINK_MBPS),
        rtt_s=RTT_S,
        buffer_bytes=BUFFER_BYTES,
        noise=wifi_noise(severity),
        reverse_noise=wifi_noise(severity),
        rng=make_rng(5),
    )
    primary = dumbbell.add_flow(BBRSender(), flow_id=1)
    scavenger = dumbbell.add_flow(
        ProteusSender("proteus-s"), flow_id=2, start_time=5.0
    )
    sim.run(until=DURATION_S)
    window = (DURATION_S / 2, DURATION_S)
    return (
        primary.stats.throughput_bps(*window) / 1e6,
        scavenger.stats.throughput_bps(*window) / 1e6,
    )


def main() -> None:
    all_off = NoiseToleranceConfig(
        ack_filter=False,
        regression_tolerance=False,
        trending_tolerance=False,
        majority_rule=False,
    )
    rows = []
    for severity in (0.5, 1.0, 2.0):
        with_tolerance = run_solo(None, severity)
        without = run_solo(all_off, severity)
        rows.append(
            (f"{severity:.1f}", f"{with_tolerance:.1f}", f"{without:.1f}")
        )
    print_table(
        ["noise severity", "Proteus-S w/ tolerance", "w/o tolerance"],
        rows,
        title=f"Solo scavenger throughput (Mbps) on a noisy {LINK_MBPS:.0f} Mbps link",
    )

    primary, scavenger = run_vs_bbr(1.0)
    print(
        f"\nWith a primary BBR flow on the same noisy link: BBR gets "
        f"{primary:.1f} Mbps, Proteus-S scavenges {scavenger:.1f} Mbps —\n"
        "noise tolerance does not stop the scavenger from yielding to real "
        "competition."
    )


if __name__ == "__main__":
    main()
