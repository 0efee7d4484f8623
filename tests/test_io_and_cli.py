"""Tests for trace/result persistence and the command-line interface."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser, main
from repro.io.results import load_result, save_result, to_jsonable
from repro.io.tracefile import load_traces, save_traces
from repro.measurement.em_simulator import EMTrace


def make_trace(label: str, seed: int) -> EMTrace:
    rng = np.random.default_rng(seed)
    return EMTrace(
        samples=rng.normal(0, 100, 256),
        label=label,
        plaintext=bytes(range(16)),
        sample_period_ns=0.2,
    )


def test_save_and_load_traces_round_trip(tmp_path):
    traces = [make_trace("golden", 1), make_trace("infected", 2)]
    path = save_traces(tmp_path / "campaign", traces)
    assert path.suffix == ".npz"
    loaded = load_traces(path)
    assert len(loaded) == 2
    assert loaded[0].label == "golden"
    assert loaded[1].plaintext == bytes(range(16))
    assert np.allclose(loaded[0].samples, traces[0].samples)
    assert loaded[0].sample_period_ns == pytest.approx(0.2)


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    num_traces=st.integers(1, 4),
    num_samples=st.integers(1, 64),
    dtype=st.sampled_from([np.float64, np.float32]),
)
def test_trace_round_trip_is_lossless(tmp_path_factory, data, num_traces,
                                      num_samples, dtype):
    """Every EMTrace field survives save/load bit-for-bit.

    Pins the v1 lossiness fix: sample dtype is preserved and
    ``cycle_sample_offsets`` — including ragged, per-trace lengths — is
    no longer dropped on save.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    traces = []
    for index in range(num_traces):
        num_offsets = data.draw(st.integers(0, 8))
        traces.append(EMTrace(
            samples=rng.normal(0, 100, num_samples).astype(dtype),
            label=data.draw(st.text(
                alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                min_size=1, max_size=12)),
            plaintext=bytes(rng.integers(0, 256, 16, dtype=np.uint8)),
            sample_period_ns=float(data.draw(st.floats(
                1e-3, 10.0, allow_nan=False, allow_infinity=False))),
            cycle_sample_offsets=[int(v) for v in
                                  rng.integers(0, 4096, num_offsets)],
        ))
    path = tmp_path_factory.mktemp("traces") / "round_trip.npz"
    loaded = load_traces(save_traces(path, traces))
    assert len(loaded) == len(traces)
    for original, copy in zip(traces, loaded):
        assert copy.samples.dtype == original.samples.dtype
        assert copy.samples.tobytes() == original.samples.tobytes()
        assert copy.label == original.label
        assert copy.plaintext == original.plaintext
        assert copy.sample_period_ns == original.sample_period_ns
        assert copy.cycle_sample_offsets == original.cycle_sample_offsets


def test_v1_archives_still_load(tmp_path):
    """Archives written before the offsets fix load with empty offsets."""
    traces = [make_trace("legacy", 5)]
    path = tmp_path / "legacy.npz"
    np.savez_compressed(
        path,
        format_version=np.array(1),
        samples=np.vstack([traces[0].samples]),
        labels=np.array(["legacy"]),
        plaintexts=np.array([traces[0].plaintext.hex()]),
        sample_period_ns=np.array([0.2]),
    )
    loaded = load_traces(path)
    assert loaded[0].label == "legacy"
    assert loaded[0].cycle_sample_offsets == []
    assert np.array_equal(loaded[0].samples, traces[0].samples)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "future.npz"
    np.savez_compressed(path, format_version=np.array(99),
                        samples=np.zeros((1, 4)))
    with pytest.raises(ValueError, match="version 99"):
        load_traces(path)


def test_save_traces_validation(tmp_path):
    with pytest.raises(ValueError):
        save_traces(tmp_path / "x.npz", [])
    bad = [make_trace("a", 1), EMTrace(np.zeros(10), "b", bytes(16), 0.2)]
    with pytest.raises(ValueError):
        save_traces(tmp_path / "y.npz", bad)


def test_load_traces_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_traces(tmp_path / "missing.npz")


def test_to_jsonable_handles_numpy_and_dataclasses(population_study):
    payload = to_jsonable(population_study.characterisations["HT1"])
    assert isinstance(payload, dict)
    assert isinstance(payload["false_negative_rate"], float)
    assert to_jsonable(np.float64(1.5)) == 1.5
    assert to_jsonable(np.array([1, 2])) == [1, 2]
    assert to_jsonable(b"\x01\x02") == "0102"
    assert to_jsonable({"k": (1, 2)}) == {"k": [1, 2]}


def test_save_and_load_result_round_trip(tmp_path, population_study):
    path = save_result(tmp_path / "headline",
                       population_study.false_negative_rates())
    assert path.suffix == ".json"
    loaded = load_result(path)
    assert set(loaded) == {"HT1", "HT3"}
    # The file is valid JSON.
    json.loads(path.read_text())
    with pytest.raises(FileNotFoundError):
        load_result(tmp_path / "missing.json")


def test_cli_parser_has_all_subcommands():
    parser = build_parser()
    for command in ("trojans", "delay", "em", "headline", "experiments"):
        args = parser.parse_args([command, "--quick"])
        assert args.command == command
        assert args.quick


def test_cli_parser_campaign_store_and_shard_flags():
    parser = build_parser()
    args = parser.parse_args(["campaign", "run", "--store", "artifacts",
                              "--shard", "1/4"])
    assert args.store == "artifacts"
    assert args.shard == (1, 4)
    args = parser.parse_args(["campaign", "merge", "a", "b", "--out", "m"])
    assert args.shards == ["a", "b"] and args.out == "m"
    for bad_shard in ("2/2", "x/2", "1", "-1/2", "1/0"):
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "run", "--shard", bad_shard])


def test_cli_trojans_command(capsys):
    exit_code = main(["trojans", "--quick"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "HT3" in output
    assert "% of AES" in output


def test_cli_delay_command(capsys):
    exit_code = main(["delay", "--quick", "--trojan", "HT_comb"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Delay-based detection" in output
    assert "HT_comb" in output


def test_cli_em_command(capsys):
    exit_code = main(["em", "--quick"])
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Same-die EM detection" in output


@pytest.mark.parametrize("argv, message", [
    (["delay", "--trojan", "BOGUS"], "argument --trojan: invalid choice: 'BOGUS'"),
    (["em", "--trojan", "BOGUS"], "argument --trojan: invalid choice: 'BOGUS'"),
    (["campaign", "run", "--trojan", "BOGUS", "--dies", "2"],
     "argument --trojan: invalid choice: 'BOGUS'"),
    (["attack", "sweep", "--trojan", "BOGUS"],
     "argument --trojan: invalid choice: 'BOGUS'"),
    (["delay", "--trojan", "HT_comb", "--trojan", "HT_comb"],
     "argument --trojan: repeated HT_comb"),
    (["headline", "--seed", "-1"],
     "argument --seed: must be a non-negative integer, got -1"),
    (["campaign", "run", "--seed", "-3"],
     "argument --seed: must be a non-negative integer, got -3"),
    (["attack", "recover", "--seed", "x"],
     "argument --seed: invalid int value: 'x'"),
])
def test_cli_rejects_bad_input_without_traceback(capsys, argv, message):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    last_line = err.strip().splitlines()[-1]
    assert last_line.startswith("repro-ht")
    assert f"error: {message}" in last_line
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["campaign", "run", "--retries", "-1"], "max_retries must be >= 0"),
    (["campaign", "run", "--pk-pairs", "0"], "num_pk_pairs must be >= 1"),
    (["campaign", "run", "--plaintexts", "0"],
     "num_plaintexts must be >= 1"),
    (["campaign", "run", "--spec", "{spec}"], "workers must be >= 1"),
    (["attack", "sweep", "--retries", "-1"], "max_retries must be >= 0"),
    (["attack", "recover", "--plaintexts", "0"],
     "num_plaintexts must be >= 1"),
])
def test_cli_validates_final_spec(tmp_path, capsys, argv, message):
    """Flag overrides and spec files are validated before any cell runs
    or any output is written."""
    spec_path = tmp_path / "bad_spec.json"
    spec_path.write_text(json.dumps({"workers": 0}))
    out = tmp_path / "out"
    argv = [arg.format(spec=spec_path) for arg in argv]
    argv += ["--trojan", "HT1", "--dies", "2"]
    if argv[1] != "recover":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()
