"""End-to-end command-line tests in temporary directories."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from synclab.analysis import load_trace
from synclab.cli import main
from synclab.config import RunConfig, canonical_hash
from synclab.estimators import HeadEstimator

CONFIG = {"scheme": "reverse-oneway", "duration_s": 20, "si_s": 1}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(CONFIG))
    return path


def test_run_writes_outputs(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    code = main([
        "run", "--config", str(config_path), "--out-dir", str(out),
        "--save-trace", "--event-log",
    ])
    assert code == 0
    for name in ("measurements.csv", "summary.json", "trace.json", "events.csv"):
        assert (out / name).exists(), name
    line = capsys.readouterr().out
    assert "reverse-oneway" in line and "mae=" in line
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scheme"] == "reverse-oneway"
    assert summary["accuracy"]["n_translated"] > 0
    assert summary["energy"]["total_j"] > 0


def test_run_is_byte_identical_across_invocations(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out-dir", str(a)]) == 0
    assert main(["run", "--config", str(config_path), "--out-dir", str(b)]) == 0
    assert (a / "measurements.csv").read_bytes() == (b / "measurements.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()


FP32_FLOOD = {
    "scheme": "conventional-oneway", "duration_s": 60, "si_s": 1, "hops": 3,
    "seed": 5, "link": {"loss": 0.01},
}


@pytest.mark.parametrize(
    "node, digests",
    [
        (
            {"method": "window-lsq", "window": 8, "precision": "fp32-chop"},
            ("991f95ffbddd470f86dc6cbb2a67e9ac8dd09517db23d938ac6859d59d544460",
             "ab7d90d8e794a380fafb904ff0a8a470c787c3b7970809ec05ae2d28c54dbb4f"),
        ),
        (
            {"method": "two-point", "precision": "fp32-nearest"},
            ("ced9d034f456381809e9e4b52cd4f498c3839986bd7e6e72ff5564c6d0903fd8",
             "bf90efa5451044786db8e7ae9c8015031b06a55e35189b60b3e624c80e4f57e4"),
        ),
        (
            {"method": "two-point", "precision": "fp32-chop"},
            ("6647b9642f89d2e66bb48fe5c219fcd4382ba86ab6ba6f6c8bb1ebc6b98f5262",
             "75500d184b1f25de5f90b210a64e092263ae227914869afcca70abd23233137d"),
        ),
        (
            {"method": "window-lsq", "window": 8, "precision": "fp32-nearest"},
            ("5f5fe25a300758fcc729293b51a6683410783b00bf99ce75f86e61f367d69aa4",
             "e7eef1cf73606e21afaa19ca71d07dddfa4ec83a78f32d69edd357788b0d3e81"),
        ),
    ],
    ids=["fp32-chop-window-lsq", "fp32-nearest-two-point",
         "fp32-chop-two-point", "fp32-nearest-window-lsq"],
)
def test_fp32_node_run_outputs_are_pinned(tmp_path, node, digests):
    # sha256 of the outputs of the fp32 node path, fixed so that a change to
    # the single-precision emulation cannot move a bit of a run unnoticed
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**FP32_FLOOD, "node": node}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("measurements.csv", "summary.json")
    )
    assert got == digests


def test_fp64_window_lsq_node_run_outputs_are_pinned(tmp_path):
    # the fp64 node window-lsq link, whose exact sums are kept across
    # evictions, as the fp32 pins above fix the rounded one
    path = tmp_path / "run.json"
    path.write_text(json.dumps(
        {**FP32_FLOOD, "node": {"method": "window-lsq", "window": 8, "precision": "fp64"}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("measurements.csv", "summary.json")
    )
    assert got == ("39bf56661e845a2d9b4e73664c7cc430aa9a7f0f2d18d4a3b9d969013a2c6383",
                   "8d19120cd28a9d69b10812dd9234e458f54850a74ef950c157a575f86636c275")


REVERSE_CHAIN = {
    "scheme": "reverse-oneway", "duration_s": 60, "si_s": 1, "hops": 6,
    "seed": 11, "bundling": "self",
    "clock": {"drift": {"kind": "random-walk", "sigma_ppm": 0.02}},
    "link": {"loss": 0.05},
}


def test_reverse_oneway_run_outputs_are_pinned(tmp_path):
    # sha256 of every output of a lossy multi-hop reverse one-way run, fixed
    # so that no speed-up of the engine, the jitter draws, the head-side
    # fits or the writers can move a byte of the paper's scheme unnoticed
    path = tmp_path / "run.json"
    path.write_text(json.dumps(REVERSE_CHAIN))
    out = tmp_path / "out"
    assert main([
        "run", "--config", str(path), "--out-dir", str(out),
        "--save-trace", "--event-log",
    ]) == 0
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("measurements.csv", "summary.json", "trace.json", "events.csv")
    )
    assert got == (
        "4a687ac100d11fe48cf5c6e0997af91731f74d5bd840b4cbcd7766a8608eac44",
        "1d8878d38f3ee1e8aaa4f6e22f82ed7e77685a5ce06ee9ac4baf753fd7a0f811",
        "1a372ede455c6bf370f7f82f920dcf8fcaa432e1adb135ddf17c5e3acd7bb669",
        "2cedd7db6a6250156e63edf51ecf945ea3721eba0960f580296664055b3348d3",
    )


@pytest.fixture(scope="module")
def reverse_chain_trace(tmp_path_factory):
    out = tmp_path_factory.mktemp("reverse-chain")
    path = out / "run.json"
    path.write_text(json.dumps(REVERSE_CHAIN))
    assert main(["run", "--config", str(path), "--out-dir", str(out), "--save-trace"]) == 0
    return out / "trace.json"


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--window", "2"],
         "831de3ba13a75eb899c707162bec2d4d2332f4fdd2421623b6d257cbcb520659"),
        (["--window", "all"],
         "5e315010d3988f1f7b57674bb84cde20e09e96e67ab928e89427bd08d53e5a91"),
        (["--method", "cumulative-ratio"],
         "bb94b171f363cdabbcb16bd279fab207243e95051673850736a3507db0b8d7ad"),
        (["--method", "two-point"],
         "831de3ba13a75eb899c707162bec2d4d2332f4fdd2421623b6d257cbcb520659"),
    ],
    ids=["window-2", "window-all", "cumulative-ratio", "two-point"],
)
def test_reverse_oneway_replays_are_pinned(tmp_path, reverse_chain_trace, args, digest):
    # the run above fits window-lsq at window 19; these pin every other head
    # link on the same trace.  On int stamps two-point interpolates exactly up
    # to its last rounding, so it writes the bytes of a window of 2
    out = tmp_path / "out"
    assert main(["replay", "--trace", str(reverse_chain_trace), "--out-dir", str(out),
                 *args]) == 0
    assert hashlib.sha256((out / "measurements.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "config, digests",
    [
        (
            {"scheme": "reverse-twoway", "duration_s": 60, "si_s": 1, "seed": 7},
            ("fe27b7fa4011375ed5c22da042fdaa9b9b9d437898b6e3e8a0fe24a453f06abe",
             "9c05f16d5ad79ed6b061dae33265c802851c0ad1f0219a749fae649683ab7787",
             "08e1ff00c9c3aef677caff1573a11be9e59b467a57a9e188370a41b9858a4269",
             "4fa408c254b01e577c9f1ecaafba81215bf284ed86a9bfa6de2e2e57434a75b3"),
        ),
        (
            {"scheme": "conventional-twoway", "duration_s": 60, "si_s": 1, "seed": 7},
            ("ffcb1ff381f4d522bd9b3aeca1d12ca5f819812ce5bc7c6221d3a364a371fefc",
             "8ad6e63f3a8964c9abbe1e780619903075a9a27c270c785004dbd1fb86c62563",
             "5517ccbfc3598d511078c3cc01c0bd564752c2395946f3cbbb0ba2853fc98faf",
             "ab30115a5feceb5c9bf71a71402778208b55d786737975640fa50e99a067a281"),
        ),
        (
            {"scheme": "reverse-oneway", "duration_s": 60, "si_s": 1, "hops": 3,
             "seed": 7, "bundling": "all", "report_interval_s": None,
             "bundle_size": 2, "link": {"loss": 0.05}},
            ("b7ee044bd1b9ca6e45753ebc003f4ad94d8f1ccfa3d4785d46f565bb90bee8ee",
             "4b3fb77a5caf5a21d5c38500f6636838106f31eb11facfc3d19171a5663723e6",
             "403b2fec9f9776a582e6a8b4bf800a3fb4882342bc890a5cad5a30ec97092c06",
             "1911b4c509adf3c79d560b13e3918d1c3d7429d6db3cc6c7c32973d1309c97b0"),
        ),
        (
            {"scheme": "conventional-oneway", "duration_s": 60, "si_s": 1, "hops": 3,
             "seed": 7, "report_interval_s": None, "bundle_size": 3,
             "node": {"precision": "fp64"}, "radio": {"schedule": "lpl"}},
            ("fc5801ba2114ca94d96f8a72a7d4efcd5d4f9c0d48aa706d802d9ddfd1cd5a9e",
             "6b3703480006651f81cc8c055978ef8712a7ca310493ec518aa6d71d112cdc39",
             "a0455d065cb2db661ea9a74894395c2d0008f870d9997cf010fd906f6fe928d1",
             "8c9ec22ea8bd5761634a7a79999cf3bbba714ccce7dba6d434a2235235f1e3aa"),
        ),
    ],
    ids=[
        "reverse-twoway", "conventional-twoway", "reverse-oneway-bundle-all",
        "conventional-oneway-fp64-lpl",
    ],
)
def test_engine_paths_outputs_are_pinned(tmp_path, config, digests):
    # sha256 of every output of the engine paths the pins above leave out:
    # both two-way baselines, event-driven all-data bundling through
    # gateways, and event-driven measurement frames forwarded under flooding
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([
        "run", "--config", str(path), "--out-dir", str(out),
        "--save-trace", "--event-log",
    ]) == 0
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("measurements.csv", "summary.json", "trace.json", "events.csv")
    )
    assert got == digests


@pytest.mark.parametrize(
    "config, digests",
    [
        (
            {"scheme": "reverse-oneway", "duration_s": 10, "si_s": 1,
             "clock": {"offset_us": 1e20}},
            ("dd6b8b813d4404099fdff9876d8c7a55fee532380211a1199ada9c09f6a4e87d",
             "af1368272c53576036f80aea6ccce4fe00769b2acbadc3f1ecfe4fe3dd4e0c58"),
        ),
        (
            {"scheme": "reverse-oneway", "duration_s": 20, "si_s": 1, "hops": 3,
             "bundling": "self", "clock": {"tick_us": None}},
            ("41e9947dc54f31f36439563b28d5125bc76210846fb780e884fe3515d32f2eef",
             "1788629e106ee8c99c52411a5b92911be63495ea43a70373ea70f472ea7d52de"),
        ),
        (
            {"scheme": "reverse-oneway", "duration_s": 1e12, "si_s": 1e11},
            ("cb250bb0febea1c9b218a34a9501ba8d9e9a95067643419d0392a6fc76623fd5",
             "ecf7b8a6d1278c32c4637b7ab1ed70fe9621c8ba45f8c783a85177bd916e2261"),
        ),
    ],
    ids=["far-offset", "tick-free", "long"],
)
def test_wide_and_float_head_events_are_pinned(tmp_path, config, digests):
    # runs whose head events hold stamps past int64 (about 1e20 ticks), float
    # stamps, or times past int64 (about 1e20 ns): their outputs are pinned,
    # and a replay at the run's own settings writes the run's measurements
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out, own = tmp_path / "out", tmp_path / "own"
    assert main(["run", "--config", str(path), "--out-dir", str(out), "--save-trace"]) == 0
    got = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("measurements.csv", "trace.json")
    )
    assert got == digests
    assert main(["replay", "--trace", str(out / "trace.json"), "--out-dir", str(own)]) == 0
    assert (own / "measurements.csv").read_bytes() == (out / "measurements.csv").read_bytes()


def test_seed_override_changes_results(tmp_path, config_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", str(config_path), "--out-dir", str(a), "--seed", "0"])
    main(["run", "--config", str(config_path), "--out-dir", str(b), "--seed", "1"])
    assert (a / "measurements.csv").read_bytes() != (b / "measurements.csv").read_bytes()


def test_count_closed_forms(capsys):
    assert main(["count", "--hops", "4", "--per-hop-measurements", "2"]) == 0
    out = capsys.readouterr().out
    assert "39" in out and "16" in out and "7" in out


def test_count_table(capsys):
    assert main(["count", "--table1"]) == 0
    out = capsys.readouterr().out
    for scheme in ("reverse-oneway", "reverse-twoway",
                   "conventional-oneway", "conventional-twoway"):
        assert scheme in out
    assert "n_tx=  3700" in out  # two-way at SI=1 s
    assert "n_rx=     0" in out  # beaconless never receives


def test_count_requires_hops(capsys):
    assert main(["count"]) == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_writes_rows(tmp_path, config_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--config", str(config_path), "--seeds", "0",
        "--windows", "2", "all", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scheme,")
    assert len(lines) == 3  # header + one row per window
    assert "wrote 2 rows" in capsys.readouterr().out


def test_replay_reproduces_run_outputs(tmp_path, config_path):
    first = tmp_path / "first"
    main(["run", "--config", str(config_path), "--out-dir", str(first), "--save-trace"])
    again = tmp_path / "again"
    code = main([
        "replay", "--trace", str(first / "trace.json"), "--out-dir", str(again),
    ])
    assert code == 0
    assert (
        (first / "measurements.csv").read_bytes()
        == (again / "measurements.csv").read_bytes()
    )
    narrowed = tmp_path / "narrow"
    main([
        "replay", "--trace", str(first / "trace.json"), "--window", "2",
        "--out-dir", str(narrowed),
    ])
    assert (
        (first / "measurements.csv").read_bytes()
        != (narrowed / "measurements.csv").read_bytes()
    )


VERSIONLESS = Path(__file__).parent / "data" / "versionless"


def test_malformed_trace_is_a_usage_error(tmp_path, config_path, capsys):
    run_dir = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out-dir", str(run_dir), "--save-trace",
          "--event-log"])
    saved = (run_dir / "trace.json").read_text()
    (bad_energy, extra_column, cut_column, bad_version, unknown_origin,
     string_stamp, wrong_layer, huge_tick, inf_stamp, inf_ticks) = (
        json.loads(saved) for _ in range(10))
    # event-log rows that are not [t_ns, node, kind], a stored config that
    # does not parse or names another run, and a config hash that is not the
    # stored config's, or names no config
    short_event, unknown_node, other_scheme, string_hops, bad_hash, hash_of_none = (
        json.loads(saved) for _ in range(6))
    bad_hash["config_hash"] = "not-a-hash"
    hash_of_none["config"] = None
    short_event["event_log"].insert(3, [1, 2])
    unknown_node["event_log"].append([1, 99, "tx-report"])
    other_scheme["config"]["scheme"] = "conventional-oneway"
    string_hops["config"]["hops"] = "three"
    bad_energy["config"]["energy"] = {"i_tx": 0.02}
    extra_column["undelivered"]["extra"] = []
    cut_column["head_events"]["pair"]["t_child"].pop()
    bad_version["format_version"] = 2
    unknown_origin["head_events"]["measurement"]["origin"][0] = 99
    string_stamp["head_events"]["pair"]["t_child"][3] = "5"
    wrong_layer["head_events"]["pair"]["layer"][0] = 7
    huge_tick["tick_ns"] = 10**400  # past the float range, not only MAX_TICK_NS
    # the literal 1e400 (written for the string "1e400" below), which json
    # reads as inf
    inf_stamp["head_events"]["pair"]["t_child"][3] = "1e400"
    inf_ticks["head_events"]["measurement"]["local_ticks"][0] = "1e400"
    # a version-less trace is converted, then checked as the current format
    versionless = (VERSIONLESS / "trace.json").read_text()
    (old_extra_key, old_cut_event, old_unknown_origin, old_string_stamp,
     old_wrong_level, old_inf_stamp) = (json.loads(versionless) for _ in range(6))
    old_extra_key["outcomes"][0]["extra"] = 1
    old_cut_event["head_events"][3] = ["pair", 1]
    events = old_unknown_origin["head_events"]
    events[[ev[0] for ev in events].index("measurement")][2] = 99
    events = old_string_stamp["head_events"]
    events[[ev[0] for ev in events].index("pair")][4] = "5"
    events = old_wrong_level["head_events"]
    events[[ev[0] for ev in events].index("measurement")][3] = 7
    events = old_inf_stamp["head_events"]
    events[[ev[0] for ev in events].index("pair")][5] = "1e400"
    # node tables that disagree with the levels, and values analysis cannot use
    (extra_node, no_airtime, no_schedule, string_airtime, string_count,
     unknown_kind, negative_count, bad_duty, cut_accounting) = (
        json.loads(versionless) for _ in range(9))
    extra_node["node_counts"]["9"] = {"report": [1, 0]}
    no_airtime["airtime"].pop("1")
    no_schedule["radio"].pop("schedule")
    string_airtime["airtime"]["1"] = ["a", "b"]
    string_count["pair_accounting"]["created"] = "x"
    unknown_kind["node_counts"]["1"]["telegram"] = [1, 0]
    negative_count["node_counts"]["1"]["report"] = [-1, 0]
    bad_duty["radio"]["lpl_duty"] = 0.0
    cut_accounting["record_accounting"].pop("lost")
    # top-level values no run could have written
    (zero_tick, negative_tick, string_level, two_heads, stray_chain, short_chain,
     negative_seed, zero_duration, bad_method, narrow_window) = (
        json.loads(versionless) for _ in range(10))
    zero_tick["tick_ns"] = 0
    negative_tick["tick_ns"] = -1000
    string_level["levels"]["0"] = "x"
    two_heads["levels"]["1"] = 0
    stray_chain["chains"]["3"] = [1, 2, 9]
    short_chain["chains"]["3"] = [1, 2]
    negative_seed["seed"] = -1
    zero_duration["duration_ns"] = 0
    bad_method["head_method"] = "bogus"
    narrow_window["head_window"] = 1
    # node ids other than the decimal str() writes, one of them a second
    # spelling of a node already in its table
    plus_id, padded_id = (json.loads(versionless) for _ in range(2))
    plus_id["levels"]["+1"] = plus_id["levels"].pop("1")
    padded_id["node_counts"]["01"] = padded_id["node_counts"]["1"]
    cases = (
        ({}, "'scheme'"),
        ([1, 2], "JSON object"),
        (bad_energy, "'i_tx'"),
        (extra_column, "'undelivered'"),
        (cut_column, "'head_events'"),
        (bad_version, "format_version"),
        (unknown_origin, "'head_events'"),
        (string_stamp, "'head_events'"),
        (wrong_layer, "'head_events'"),
        (huge_tick, "'tick_ns'"),
        (inf_stamp, "'head_events'"),
        (inf_ticks, "'head_events'"),
        (short_event, "'event_log'"),
        (unknown_node, "'event_log'"),
        (other_scheme, "'config'"),
        (string_hops, "'config'"),
        (bad_hash, "'config_hash'"),
        (hash_of_none, "'config_hash'"),
        (old_extra_key, "'outcomes'"),
        (old_cut_event, "'head_events'"),
        (old_unknown_origin, "'head_events'"),
        (old_string_stamp, "'head_events'"),
        (old_wrong_level, "'head_events'"),
        (old_inf_stamp, "'head_events'"),
        (extra_node, "'node_counts'"),
        (no_airtime, "'airtime'"),
        (no_schedule, "'radio'"),
        (string_airtime, "'airtime'"),
        (string_count, "'pair_accounting'"),
        (unknown_kind, "'node_counts'"),
        (negative_count, "'node_counts'"),
        (bad_duty, "'radio'"),
        (cut_accounting, "'record_accounting'"),
        (zero_tick, "'tick_ns'"),
        (negative_tick, "'tick_ns'"),
        (string_level, "'levels'"),
        (two_heads, "'levels'"),
        (stray_chain, "'chains'"),
        (short_chain, "'chains'"),
        (negative_seed, "'seed'"),
        (zero_duration, "'duration_ns'"),
        (bad_method, "'head_method'"),
        (narrow_window, "'head_window'"),
        (plus_id, "'+1'"),
        (padded_id, "'01'"),
    )
    for i, (data, named) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(data).replace('"1e400"', "1e400"))
        capsys.readouterr()
        out = tmp_path / f"out{i}"
        assert main(["replay", "--trace", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and named in err, err
        assert not (out / "measurements.csv").exists(), named


def test_a_retired_bundling_is_upgraded_on_load(tmp_path, config_path, capsys):
    # a saved trace of a default-bundling run stored "none" until that value
    # was retired; it loads as "self", which ran the same
    run_dir = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out-dir", str(run_dir), "--save-trace"])
    data = json.loads((run_dir / "trace.json").read_text())
    data["config"]["bundling"] = "none"
    data["config_hash"] = canonical_hash(data["config"])
    old = tmp_path / "old.json"
    old.write_text(json.dumps(data))
    assert load_trace(old).config.bundling == "self"
    out = tmp_path / "replayed"
    assert main(["replay", "--trace", str(old), "--out-dir", str(out), "--save-trace"]) == 0
    live = (run_dir / "measurements.csv").read_bytes()
    assert (out / "measurements.csv").read_bytes() == live
    # a re-saved trace carries the upgraded config, named by its own hash
    saved = json.loads((out / "trace.json").read_text())
    assert saved["config"]["bundling"] == "self"
    assert saved["config_hash"] == canonical_hash(saved["config"]) != data["config_hash"]
    again = tmp_path / "again"
    assert main(["replay", "--trace", str(out / "trace.json"), "--out-dir", str(again)]) == 0
    assert (again / "measurements.csv").read_bytes() == live
    # a value that was never one is still an error
    data["config"]["bundling"] = "bogus"
    data["config_hash"] = canonical_hash(data["config"])
    old.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["replay", "--trace", str(old), "--out-dir", str(tmp_path / "bogus")]) == 2
    assert "'config'" in capsys.readouterr().err


def test_replay_parses_the_stored_config_once(tmp_path, config_path, monkeypatch):
    run_dir = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out-dir", str(run_dir), "--save-trace"])
    calls = []
    from_dict = RunConfig.from_dict

    def counted(data):
        calls.append(data)
        return from_dict(data)

    monkeypatch.setattr(RunConfig, "from_dict", staticmethod(counted))
    out = tmp_path / "replayed"
    assert main(["replay", "--trace", str(run_dir / "trace.json"), "--out-dir", str(out)]) == 0
    assert len(calls) == 1


def replay_with_a_huge_stamp(tmp_path, *args):
    """Replay the version-less trace with one pair's child stamp set far past
    the float range; exit 0 with finite translated estimates."""
    data = json.loads((VERSIONLESS / "trace.json").read_text())
    pairs = [event for event in data["head_events"] if event[0] == "pair"]
    pairs[len(pairs) // 2][4] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(data))
    assert main(["replay", "--trace", str(path), "--out-dir", str(tmp_path), *args]) == 0
    with open(tmp_path / "measurements.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    translated = [row for row in rows if row["translated"] == "true"]
    assert translated
    assert all(math.isfinite(float(row[col])) for row in translated
               for col in ("est_ticks", "err_s"))


def test_replay_rejects_a_refit_that_overflows_a_float(tmp_path):
    # a pair stamp far past the float range makes every fit over it
    # overflow: the head rejects those refits and keeps its last good fit
    replay_with_a_huge_stamp(tmp_path)


@pytest.mark.parametrize("method", ["cumulative-ratio", "two-point"])
def test_replay_rejects_a_two_pair_fit_that_overflows_a_float(tmp_path, method):
    # the two-pair head fits reject a quotient past the float range as well
    replay_with_a_huge_stamp(tmp_path, "--method", method)


@pytest.mark.parametrize("window", [[], ["--window", "2"]], ids=["own", "window-2"])
def test_replay_folds_the_head_events_once(tmp_path, config_path, monkeypatch, window):
    run_dir = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out-dir", str(run_dir), "--save-trace"])
    saved = json.loads((run_dir / "trace.json").read_text())
    pairs = saved["head_events"]["kinds"].count("p")
    calls = []
    ingest = HeadEstimator.ingest

    def counted(self, node_id, pair):
        calls.append(node_id)
        return ingest(self, node_id, pair)

    monkeypatch.setattr(HeadEstimator, "ingest", counted)
    out = tmp_path / "replayed"
    assert main(["replay", "--trace", str(run_dir / "trace.json"), "--out-dir", str(out),
                 *window]) == 0
    assert len(calls) == pairs > 0


@pytest.mark.parametrize("node, clock, code", [
    # stamps in range whose squares are not: every refit overflows, and the
    # node keeps its last good fit, which it never had
    ({"precision": "fp32-chop", "method": "window-lsq"}, {"offset_us": 1e30}, 0),
    # stamps past FLOAT32_MAX: rejected before the run
    ({"precision": "fp32-nearest", "method": "two-point"},
     {"offset_us": 1e36, "tick_us": None}, 2),
])
def test_fp32_node_at_a_far_clock_offset_runs_or_is_rejected(tmp_path, node, clock, code):
    config = {"scheme": "conventional-oneway", "duration_s": 5, "si_s": 1,
              "node": node, "clock": clock}
    path = tmp_path / "far.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == code
    if code == 0:
        with open(out / "measurements.csv", newline="") as fh:
            reasons = {row["reason"] for row in csv.DictReader(fh)}
        assert reasons == {"bootstrap"}


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_window_is_rejected_by_the_parser(config_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(config_path), "--windows", "1", "--out", "x"])
    with pytest.raises(SystemExit):
        main(["sweep", "--config", str(config_path), "--windows", "wide", "--out", "x"])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "synclab.cli", "count", "--hops", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "conventional n=2" in proc.stdout


POOL_FREE = """
import json, sys
from pathlib import Path
from synclab.cli import main

work = Path(sys.argv[1])
(work / "run.json").write_text(json.dumps(
    {"scheme": "reverse-oneway", "duration_s": 10, "si_s": 1}
))
assert main(["run", "--config", str(work / "run.json"),
             "--out-dir", str(work / "live"), "--save-trace"]) == 0
assert main(["replay", "--trace", str(work / "live" / "trace.json"),
             "--out-dir", str(work / "own")]) == 0
assert main(["count", "--hops", "2"]) == 0
print(sorted(m for m in sys.modules if m.startswith(("multiprocessing", "concurrent"))))
"""


def test_run_and_replay_never_import_the_process_pool(tmp_path):
    # only a parallel sweep starts a pool; the other commands must not pay
    # for importing it
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", POOL_FREE, str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_sweep_workers_below_one_is_a_usage_error(tmp_path, config_path, capsys):
    out = tmp_path / "sweep.csv"
    for workers in ("0", "-3"):
        code = main([
            "sweep", "--config", str(config_path), "--seeds", "0",
            "--workers", workers, "--out", str(out),
        ])
        assert code == 2
        assert "workers" in capsys.readouterr().err
    assert not out.exists()
