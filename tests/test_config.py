import dataclasses
import json
import math

import pytest
from hypothesis import given, strategies as st

from greencell.config import (
    ConfigError,
    NetworkConfig,
    canonical_json,
    config_from_dict,
    config_hash,
    db_to_linear,
    dbm_to_watts,
    load_config,
)

from oracles import save_config


def test_baseline_file_loads_with_unit_conversion(baseline_cfg):
    assert baseline_cfg.noise_power == pytest.approx(1e-7, rel=1e-12)
    assert baseline_cfg.tau == pytest.approx(0.1, rel=1e-12)
    assert baseline_cfg.n_channels == 20
    assert baseline_cfg.t_levels == 10
    assert baseline_cfg.static_drain == 25.0


def test_derived_constants(baseline_cfg):
    assert baseline_cfg.p_t == pytest.approx(6.3 / 20)
    assert baseline_cfg.theta == pytest.approx(2.6 * 6.3 / 20)
    assert baseline_cfg.static_drain == 25.0
    # without the override the static drain comes from the power model
    raw = dataclasses.replace(baseline_cfg, static_drain_override=None)
    assert raw.static_drain == pytest.approx(56.0 / (2.6 * 6.3 / 20))


def test_user_density_closed_form(baseline_cfg):
    # lambda_u2 * pi * r^2 * lambda_p + lambda_u1 with the baseline numbers
    assert baseline_cfg.mean_cluster_users == pytest.approx(4 * math.pi)
    assert baseline_cfg.user_arrival_density == pytest.approx(4 * math.pi + 5)


@given(st.floats(min_value=-80, max_value=60))
def test_db_round_trip(x):
    assert 10.0 * math.log10(db_to_linear(x)) == pytest.approx(x, abs=1e-9)
    assert 10.0 * math.log10(dbm_to_watts(x) * 1e3) == pytest.approx(x, abs=1e-9)


def test_validation_collects_all_problems():
    with pytest.raises(ConfigError) as err:
        NetworkConfig(
            p0_static=-1.0, delta_p=2.6, p_trans=6.3, n_channels=20,
            t_levels=0, lambda_b=1.0, lambda_u1=5.0, lambda_p=1.0,
            lambda_u2=1.0, hotspot_radius=2.0, alpha=1.5, noise_power=1e-7,
            tau=0.1, mu=2.0, omega=1.0, nu=40.0,
        )
    msg = str(err.value)
    assert "p0_static" in msg
    assert "t_levels" in msg
    assert "alpha must exceed 2" in msg


@pytest.mark.parametrize("field,value", [
    ("mu", 0.0),
    ("nu", -1.0),
    ("lambda_b", float("nan")),
    ("tau", -0.1),
    ("delta_t", 0.0),
    ("n_channels", True),
    ("t_levels", True),
    ("mu", True),
    ("tau", False),
    ("static_drain_override", True),
    ("p_req", False),
    ("p_req", "0.9"),
    ("p_req", None),
])
def test_single_field_rejection(small_cfg, field, value):
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(small_cfg, **{field: value})


def test_from_dict_rejects_unknown_and_missing_keys(baseline_cfg):
    good = json.loads(canonical_json(baseline_cfg))
    bad = dict(good, not_a_field=1.0)
    with pytest.raises(ConfigError, match="unknown config keys: not_a_field"):
        config_from_dict(bad)
    # The arrival rates are the users: there is no arrival map to configure.
    for field in ("arrival_scale", "arrival_offset"):
        with pytest.raises(ConfigError, match=f"unknown config keys: {field}"):
            config_from_dict(dict(good, **{field: 1.0}))
    del good["mu"]
    with pytest.raises(ConfigError, match="missing config keys: mu"):
        config_from_dict(good)


def test_from_dict_rejects_conflicting_unit_forms(baseline_cfg):
    raw = json.loads(canonical_json(baseline_cfg))
    raw["tau_db"] = -10.0
    with pytest.raises(ConfigError, match="either tau or tau_db"):
        config_from_dict(raw)


@pytest.mark.parametrize("alt,target", [("tau_db", "tau"), ("noise_power_dbm", "noise_power")])
def test_db_alternatives_reject_bools_and_keep_infinity(baseline_cfg, alt, target):
    raw = json.loads(canonical_json(baseline_cfg))
    del raw[target]
    for flag in (True, False):
        with pytest.raises(ConfigError, match=f"{alt} must be a number"):
            config_from_dict(dict(raw, **{alt: flag}))
    # -inf on a dB scale is a linear zero, which both fields allow.
    assert getattr(config_from_dict(dict(raw, **{alt: -math.inf})), target) == 0.0


@pytest.mark.parametrize("alt,target,value", [("tau_db", "tau", 3090.0),
                                              ("noise_power_dbm", "noise_power", 3100.0),
                                              pytest.param("tau_db", "tau", 10**400,
                                                           id="tau_db-tau-int1e400")])
def test_db_alternatives_reject_overflow(baseline_cfg, alt, target, value):
    raw = json.loads(canonical_json(baseline_cfg))
    del raw[target]
    with pytest.raises(ConfigError, match=f"{alt} = .* overflows"):
        config_from_dict(dict(raw, **{alt: value}))


def test_round_trip_is_bit_exact(tmp_path, baseline_cfg):
    path = tmp_path / "cfg.json"
    save_config(baseline_cfg, path)
    again = load_config(path)
    assert again == baseline_cfg
    for f in dataclasses.fields(NetworkConfig):
        assert getattr(again, f.name) == getattr(baseline_cfg, f.name)


def test_config_hash_tracks_content(baseline_cfg):
    h0 = config_hash(baseline_cfg)
    assert len(h0) == 64 and int(h0, 16) >= 0
    assert config_hash(baseline_cfg) == h0
    bumped = dataclasses.replace(baseline_cfg, nu=41.0)
    assert config_hash(bumped) != h0


def test_load_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(arr)
