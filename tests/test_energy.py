"""Radio model, battery and config-file tests."""

import math

import pytest

from wsnroute import (
    DelayParams,
    EnergyConfig,
    RadioParams,
    parse_config,
    rx_energy,
    tx_energy,
)
from wsnroute import energy


def test_tx_energy_zero_distance_is_electronics_only():
    p = RadioParams()
    assert tx_energy(p, 1234, 0.0) == p.e_elec * 1234


def test_tx_energy_default_parameters_worked_example():
    # 50e-9*2000 + 100e-12*2000*100^2 = 1.0e-4 + 2.0e-3
    p = RadioParams()
    assert tx_energy(p, 2000, 100.0) == pytest.approx(2.1e-3, rel=1e-12)


def test_tx_energy_strictly_increasing_in_distance():
    p = RadioParams()
    prev = tx_energy(p, 2000, 0.0)
    for d in (1.0, 10.0, 50.0, 200.0, 1e4):
        cur = tx_energy(p, 2000, d)
        assert cur > prev
        prev = cur


def test_tx_energy_rejects_negative_distance():
    with pytest.raises(ValueError):
        tx_energy(RadioParams(), 100, -1.0)


def test_rx_energy():
    p = RadioParams()
    assert rx_energy(p, 0) == 0.0
    assert rx_energy(p, 2000) == pytest.approx(1.0e-4, rel=1e-12)
    assert rx_energy(p, 2000) == tx_energy(p, 2000, 0.0)


def test_radio_params_validation():
    with pytest.raises(ValueError):
        RadioParams(e_elec=0.0)
    with pytest.raises(ValueError):
        RadioParams(alpha=1.5)
    with pytest.raises(ValueError):
        RadioParams(alpha=4.5)
    RadioParams(alpha=4.0)  # boundary allowed
    RadioParams(e_elec=8e304, eps_amp=8e304)  # 1.6e308 J per 2000-bit packet: finite, allowed


def test_battery_must_be_positive_and_finite():
    for battery in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="initial_battery_j"):
            EnergyConfig(initial_battery_j=battery)


def test_parse_config_full_and_partial():
    cfg = parse_config(
        """
        # radio
        e_elec = 60e-9
        eps_amp = 120e-12
        alpha = 3
        packet_bits = 512
        initial_battery_j = 1.5
        per_hop_s = 2e-3
        prop_speed = 2e8
        d_max_s = inf   # no deadline
        """
    )
    assert cfg.radio.e_elec == 60e-9
    assert cfg.radio.packet_bits == 512
    assert cfg.radio.alpha == 3.0
    assert cfg.delay.per_hop_s == 2e-3
    assert cfg.initial_battery_j == 1.5
    assert math.isinf(cfg.delay.d_max_s)

    partial = parse_config("initial_battery_j = 2.0")
    assert partial.initial_battery_j == 2.0
    assert partial.radio == RadioParams()
    assert partial.delay == DelayParams()


def test_parse_config_rejects_unknown_key_and_bad_value():
    with pytest.raises(ValueError, match="unknown key"):
        parse_config("watts = 3")
    with pytest.raises(ValueError, match="bad value"):
        parse_config("alpha = fast")
    with pytest.raises(ValueError, match="key=value"):
        parse_config("just some words")


def test_parse_config_rejects_a_key_given_twice():
    # the later value would silently win; the error names the key and both lines
    with pytest.raises(ValueError, match=r"config line 4: alpha is given again, first on line 2"):
        parse_config("# radio\nalpha = 2\neps_amp = 1e-12\nalpha=4\n")
    with pytest.raises(ValueError, match="line 2: d_max_s is given again, first on line 1"):
        parse_config("d_max_s = 1\nd_max_s = 1  # the same value twice is still twice\n")


# Every float key parse_config accepts; int keys (packet_bits) refuse "nan" as a bad value.
FLOAT_KEYS = ["e_elec", "eps_amp", "alpha", "per_hop_s", "prop_speed", "d_max_s", "initial_battery_j"]


def test_float_keys_are_every_float_key_of_the_config():
    assert set(FLOAT_KEYS) == {key for key, (_, kind) in energy._KEYS.items() if kind is float}


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_parse_config_rejects_nan_and_infinite_values(key, value):
    # NaN passes a `<= 0` bound, so every bound is written to fail it
    if key == "d_max_s" and value == "inf":
        assert parse_config(f"{key} = {value}").delay.d_max_s == math.inf  # no deadline
        return
    with pytest.raises(ValueError, match=key):
        parse_config(f"{key} = {value}")


@pytest.mark.parametrize("text, key", [
    ("eps_amp = 1e306", "eps_amp"),  # 2e309: a hop of length 0 would be charged inf * 0.0 = NaN
    ("e_elec = 1e306", "e_elec"),
    ("packet_bits = 1" + "0" * 400, "e_elec"),  # an int too large to convert to a float
], ids=["eps_amp", "e_elec", "packet_bits"])
def test_parse_config_rejects_a_per_packet_energy_that_overflows(text, key):
    with pytest.raises(ValueError, match=rf"{key} \* packet_bits overflows"):
        parse_config(text)
