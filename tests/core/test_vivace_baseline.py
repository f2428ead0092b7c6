"""Tests pinning the Vivace baseline's configuration differences.

The Vivace-vs-Proteus comparisons throughout the benchmarks are only
meaningful if the baseline really lacks Proteus's additions; these tests
pin that configuration so a refactor cannot silently give Vivace the
majority rule or the adaptive tolerance pipeline.
"""

from repro.core.noise_tolerance import NoiseToleranceConfig
from repro.core.utility import VivaceUtility
from repro.protocols import VivaceSender, make_sender
from repro.protocols import ProteusSender


def test_vivace_uses_original_utility():
    sender = VivaceSender()
    assert isinstance(sender.utility, VivaceUtility)
    assert type(sender.utility) is VivaceUtility  # not the Proteus subclass


def test_vivace_probing_is_two_pair_unanimous():
    sender = VivaceSender()
    assert sender.controller.config.probe_pairs == 2
    assert sender.controller.config.require_unanimous


def test_vivace_disables_adaptive_tolerance():
    sender = VivaceSender()
    assert not sender.noise_config.ack_filter
    assert not sender.noise_config.trending_tolerance
    assert not sender.noise_config.majority_rule
    # It keeps the fixed-threshold analogue (regression tolerance).
    assert sender.noise_config.regression_tolerance
    assert sender.ack_filter is None


def test_proteus_defaults_enable_everything():
    sender = make_sender("proteus-s")
    assert isinstance(sender, ProteusSender)
    assert sender.noise_config.ack_filter
    assert sender.noise_config.regression_tolerance
    assert sender.noise_config.trending_tolerance
    assert sender.noise_config.majority_rule
    assert sender.controller.config.probe_pairs == 3
    assert sender.ack_filter is not None


def test_majority_rule_flag_drives_probe_pairs():
    sender = ProteusSender(
        "proteus-p",
        noise_config=NoiseToleranceConfig(majority_rule=False),
    )
    assert sender.controller.config.probe_pairs == 2
