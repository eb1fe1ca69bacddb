import json

import pytest

from conftest import BUNDLE_CORRUPTIONS, corrupt_bundle
from vaeguard import cli, errors
from vaeguard.cli import main


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def short_baseline_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("traces") / "baseline.ndjson"
    code = run_cli(
        "simulate",
        "--scenario", "baseline",
        "--duration", "960",
        "--seed", "7",
        "--out", str(path),
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def small_model(tmp_path_factory, short_baseline_trace):
    path = tmp_path_factory.mktemp("models") / "model.json"
    code = run_cli(
        "train",
        "--trace", str(short_baseline_trace),
        "--model-out", str(path),
        "--accumulation-target", "32",
        "--epochs", "25",
        "--batch-size", "8",
        "--hidden-units", "8,8",
        "--latent-dim", "4",
    )
    assert code == 0
    return path


def test_simulate_is_deterministic(tmp_path):
    a = tmp_path / "a.ndjson"
    b = tmp_path / "b.ndjson"
    for out in (a, b):
        assert run_cli(
            "simulate", "--scenario", "baseline", "--duration", "120",
            "--seed", "5", "--out", str(out),
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_flood_announces_windows(tmp_path, capsys):
    out = tmp_path / "flood.ndjson"
    assert run_cli(
        "simulate", "--scenario", "httpflood", "--duration", "1500",
        "--seed", "5", "--out", str(out),
    ) == 0
    printed = capsys.readouterr().out
    assert "attack windows: 5" in printed


def test_simulate_rejects_unknown_scenario(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run_cli("simulate", "--scenario", "nope", "--out", str(tmp_path / "x"))
    assert excinfo.value.code == 2


def test_train_deterministic_bundles(tmp_path, short_baseline_trace):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        code = run_cli(
            "train",
            "--trace", str(short_baseline_trace),
            "--model-out", str(out),
            "--accumulation-target", "32",
            "--epochs", "10",
            "--batch-size", "8",
            "--hidden-units", "8,8",
            "--latent-dim", "4",
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_train_insufficient_data_exit_code(tmp_path, short_baseline_trace, capsys):
    code = run_cli(
        "train",
        "--trace", str(short_baseline_trace),
        "--model-out", str(tmp_path / "m.json"),
        "--accumulation-target", "120",
        "--epochs", "5",
    )
    captured = capsys.readouterr()
    assert code == 3
    assert "32" in captured.err and "120" in captured.err


def test_train_writes_curve_table(tmp_path, short_baseline_trace):
    curve_path = tmp_path / "curve.tsv"
    code = run_cli(
        "train",
        "--trace", str(short_baseline_trace),
        "--model-out", str(tmp_path / "m.json"),
        "--accumulation-target", "32",
        "--epochs", "10",
        "--batch-size", "8",
        "--hidden-units", "8,8",
        "--latent-dim", "4",
        "--curve-out", str(curve_path),
    )
    assert code == 0
    lines = curve_path.read_text().splitlines()
    assert lines[0] == "epoch\trecon\tkl"
    assert len(lines) == 11


def test_assess_outputs_are_deterministic(tmp_path, short_baseline_trace, small_model):
    outputs = []
    for name in ("r1.ndjson", "r2.ndjson"):
        out = tmp_path / name
        code = run_cli(
            "assess",
            "--trace", str(short_baseline_trace),
            "--model", str(small_model),
            "--out", str(out),
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    rows = [json.loads(line) for line in outputs[0].decode().splitlines()]
    assert len(rows) == 32
    assert all(row["mode"] in ("latent", "latent_forensics") for row in rows)


def test_assess_prints_k_sweep(short_baseline_trace, small_model, capsys):
    code = run_cli(
        "assess", "--trace", str(short_baseline_trace), "--model", str(small_model)
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "k=1:" in printed and "k=3:" in printed and "k=5:" in printed


def test_assess_corrupt_model_exit_code(tmp_path, short_baseline_trace, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    code = run_cli(
        "assess", "--trace", str(short_baseline_trace), "--model", str(bad)
    )
    assert code == 4
    assert "model error" in capsys.readouterr().err


@pytest.mark.parametrize("corruption", sorted(BUNDLE_CORRUPTIONS))
def test_assess_rejects_corrupt_bundle(tmp_path, short_baseline_trace, small_model, capsys, corruption):
    bad = tmp_path / "bad.json"
    corrupt_bundle(small_model, bad, corruption)
    code = run_cli("assess", "--trace", str(short_baseline_trace), "--model", str(bad))
    assert code == 4
    assert "model error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, field",
    [("9" * 400, "t"), ("1" * 5000, "pid"), ("9" * 400, "bytes")],
    ids=["t-overflows-float", "pid-past-int-digit-limit", "bytes-past-size_t"],
)
def test_hostile_integer_is_a_data_error(tmp_path, capsys, value, field):
    record = {"t": "1.0", "c": '"web-0"', "sc": '"openat"', "pid": "1", "ret": "0", "bytes": "0"}
    valid = "{" + ",".join(f'"{k}":{v}' for k, v in record.items()) + "}"
    record[field] = value
    hostile = "{" + ",".join(f'"{k}":{v}' for k, v in record.items()) + "}"
    trace = tmp_path / "hostile.ndjson"
    trace.write_text(f"{valid}\n{hostile}\n", encoding="utf-8")
    code = run_cli("train", "--trace", str(trace), "--model-out", str(tmp_path / "m.json"))
    assert code == 3
    assert "line 1:" in capsys.readouterr().err


def test_non_utf8_trace_is_a_data_error(tmp_path, capsys):
    valid = b'{"t":1.0,"c":"web-0","sc":"openat","pid":1,"ret":0,"bytes":0}\n'
    trace = tmp_path / "binary.ndjson"
    trace.write_bytes(valid * 2 + b'{"t":2.0,"c":"web-\xff","sc":"openat","pid":1,"ret":0,"bytes":0}\n')
    code = run_cli("train", "--trace", str(trace), "--model-out", str(tmp_path / "m.json"))
    assert code == 3
    assert "line 2: not UTF-8" in capsys.readouterr().err


_SMALL_TRAINING = (
    "--accumulation-target", "32", "--epochs", "2", "--hidden-units", "8,8", "--latent-dim", "4",
)
_RECORD = b'{"t":%s,"c":"web-0","sc":"openat","pid":1,"ret":0,"bytes":0}\n'
_HOSTILE_TRACES = {
    "not-utf8": _RECORD % b"1.0" + _RECORD.replace(b"web-0", b"web-\xff") % b"2.0",
    "out-of-order": _RECORD % b"2.0" + _RECORD % b"1.0",
    "truncated": _RECORD % b"1.0" + _RECORD[:30],
}


def _hostile_cases():
    flags = [
        ("train", ("--hidden-units", "0"), 2),
        ("train", ("--hidden-units", "-3"), 2),
        ("train", ("--hidden-units", "4,0"), 2),
        ("train", ("--latent-dim", "0"), 2),
        ("train", ("--epochs", "0"), 2),
        ("train", ("--interval-len", "nan"), 2),
        ("train", ("--interval-len", "inf"), 2),
        ("train", ("--k", "nan"), 2),
        ("train", ("--k", "-1"), 2),
        ("train", ("--learning-rate", "nan"), 2),
        ("train", ("--kl-weight", "inf"), 2),
        ("train", ("--seed", "-1"), 2),
        ("assess", ("--interval-len", "inf"), 2),
        ("assess", ("--interval-len", "nan"), 2),
        ("assess", ("--interval-len", "-30"), 2),
        ("assess", ("--k", "nan"), 2),
        ("assess", ("--k", "0"), 2),
        ("assess", ("--heuristic-threshold", "nan"), 2),
        ("assess", ("--heuristic-threshold", "-1"), 2),
        ("bench", ("--interval-len", "inf"), 2),
        ("bench", ("--k", "nan"), 2),
        ("bench", ("--bulk-batch-size", "0"), 2),
    ]
    for command, extra, code in flags:
        yield pytest.param(command, extra, None, code, id=f"{command}{'='.join(extra)}")
    for command in ("train", "assess", "bench"):
        for trace in (*_HOSTILE_TRACES, "directory"):
            yield pytest.param(command, (), trace, 3, id=f"{command}-{trace}-trace")


@pytest.mark.parametrize("command, flags, trace, expected", _hostile_cases())
def test_hostile_input_exits_with_a_documented_code(
    tmp_path, short_baseline_trace, small_model, capsys, command, flags, trace, expected
):
    """No subcommand exits 1 (an escaped exception) on a hostile flag or trace."""
    if trace is None:
        trace_path = short_baseline_trace
    elif trace == "directory":
        trace_path = tmp_path
    else:
        trace_path = tmp_path / "hostile.ndjson"
        trace_path.write_bytes(_HOSTILE_TRACES[trace])
    argv = [command, "--trace", str(trace_path)]
    if command == "train":
        argv += ["--model-out", str(tmp_path / "m.json"), *_SMALL_TRAINING]
    else:
        argv += ["--model", str(small_model)]
    if command == "bench":
        argv += ["--out-dir", str(tmp_path / "out")]
    code = run_cli(*argv, *flags)
    assert code == expected
    assert "error" in capsys.readouterr().err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_maps_to_a_documented_exit_code(monkeypatch, capsys):
    codes = {}
    for error in _subclasses(errors.VaeguardError):
        def fail(args, error=error):
            raise error.__new__(error)

        monkeypatch.setattr(cli, "cmd_simulate", fail)
        codes[error.__name__] = run_cli("simulate", "--scenario", "baseline", "--out", "unused")
    capsys.readouterr()
    assert set(codes) == {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.VaeguardError)
    } - {"VaeguardError"}
    assert {name for name, code in codes.items() if code not in (2, 3, 4, 5)} == set()


def test_assess_missing_trace_exit_code(tmp_path, small_model):
    code = run_cli(
        "assess", "--trace", str(tmp_path / "nope.ndjson"), "--model", str(small_model)
    )
    assert code == 3


def test_bench_reports_reduction(tmp_path, short_baseline_trace, small_model, capsys):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "bench",
        "--trace", str(short_baseline_trace),
        "--model", str(small_model),
        "--out-dir", str(tmp_path / "sinks"),
        "--report-out", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["standard"]["bytes_published"] > 0
    assert report["bytes_ratio"] < 0.05
    standard_file = tmp_path / "sinks" / "standard.ndjson"
    adaptive_file = tmp_path / "sinks" / "adaptive.ndjson"
    assert standard_file.stat().st_size == report["standard"]["bytes_published"]
    assert adaptive_file.stat().st_size == report["adaptive"]["bytes_published"]


def test_config_file_supplies_defaults(tmp_path, short_baseline_trace):
    config = tmp_path / "run.cfg"
    config.write_text(
        "# training settings\n"
        "accumulation-target = 32\n"
        "epochs = 10\n"
        "batch_size = 8\n"
        "hidden-units = 8,8\n"
        "latent-dim = 4\n",
        encoding="utf-8",
    )
    model_a = tmp_path / "a.json"
    code = run_cli(
        "train",
        "--config", str(config),
        "--trace", str(short_baseline_trace),
        "--model-out", str(model_a),
    )
    assert code == 0
    bundle = json.loads(model_a.read_text())
    assert bundle["train_config"]["epochs"] == 10
    assert bundle["architecture"]["hidden_units"] == [8, 8]


def test_config_file_flag_override(tmp_path, short_baseline_trace):
    config = tmp_path / "run.cfg"
    config.write_text(
        "accumulation-target = 32\nepochs = 10\nbatch_size = 8\n"
        "hidden-units = 8,8\nlatent-dim = 4\n",
        encoding="utf-8",
    )
    model = tmp_path / "m.json"
    code = run_cli(
        "train",
        "--config", str(config),
        "--epochs", "7",
        "--trace", str(short_baseline_trace),
        "--model-out", str(model),
    )
    assert code == 0
    assert json.loads(model.read_text())["train_config"]["epochs"] == 7


def test_config_file_syntax_error(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("what is this line\n", encoding="utf-8")
    assert run_cli("train", "--config", str(config)) == 2


@pytest.mark.parametrize("content", [None, b"epochs = 10\n# caf\xe9\n"], ids=["missing", "not-utf8"])
def test_config_file_unreadable_is_a_config_error(tmp_path, capsys, content):
    config = tmp_path / "run.cfg"
    if content is not None:
        config.write_bytes(content)
    assert run_cli("train", "--config", str(config)) == 2
    assert "config file" in capsys.readouterr().err


def test_heuristic_threshold_flags_the_intervals_above_it(
    tmp_path, short_baseline_trace, small_model
):
    default = tmp_path / "default.ndjson"
    assert run_cli(
        "assess", "--trace", str(short_baseline_trace), "--model", str(small_model),
        "--out", str(default),
    ) == 0
    errors = [json.loads(line)["recon_error"] for line in default.read_text().splitlines()]
    value = sorted(errors)[len(errors) // 2]
    above = [error > value for error in errors]
    assert 0 < sum(above) < len(errors)

    heuristic = tmp_path / "heuristic.ndjson"
    assert run_cli(
        "assess", "--trace", str(short_baseline_trace), "--model", str(small_model),
        "--k", "1", "--heuristic-threshold", repr(value), "--out", str(heuristic),
    ) == 0
    rows = [json.loads(line) for line in heuristic.read_text().splitlines()]
    assert [row["recon_error"] for row in rows] == errors
    assert [not row["stable"] for row in rows] == above
    assert {row["threshold"] for row in rows} == {value}

    report_path = tmp_path / "report.json"
    assert run_cli(
        "bench", "--trace", str(short_baseline_trace), "--model", str(small_model),
        "--heuristic-threshold", repr(value), "--out-dir", str(tmp_path / "sinks"),
        "--report-out", str(report_path),
    ) == 0
    assert json.loads(report_path.read_text())["adaptive"]["unstable_intervals"] == sum(above)
    published = (tmp_path / "sinks" / "adaptive.ndjson").read_text().splitlines()
    verdicts = [json.loads(line)["verdict"] for line in published]
    assert [not verdict["stable"] for verdict in verdicts] == above
    assert {verdict["threshold"] for verdict in verdicts} == {float(f"{value:.8g}")}


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run_cli()
    assert excinfo.value.code == 2
