import heapq
import json
import operator
import re
import warnings
from pathlib import Path

import pytest

from conftest import BUNDLE_CORRUPTIONS, corrupt_bundle
from vaeguard import cli, errors
from vaeguard.cli import main
from vaeguard.events import read_trace_file
from vaeguard.pipeline import PipelineConfig, assess_trace, summarize_trace
from vaeguard.vae import load_model


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
        ("simulate", ("--duration", "inf"), 2),
        ("simulate", ("--duration", "nan"), 2),
        ("simulate", ("--rate", "inf"), 2),
        ("simulate", ("--rate", "nan"), 2),
        ("simulate", ("--rate", "1e9"), 2),
        ("simulate", ("--scenario", "httpflood", "--duration", "300", "--flood-factor", "inf"), 2),
        ("simulate", ("--scenario", "httpflood", "--duration", "300", "--flood-factor", "nan"), 2),
        ("simulate", ("--scenario", "httpflood", "--duration", "300", "--flood-factor", "1e9"), 2),
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
    code = run_cli(*_command_argv(command, trace_path, small_model, tmp_path), *flags)
    assert code == expected
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "assess", "bench"])
def test_too_many_intervals_is_a_config_error(tmp_path, small_model, capsys, command):
    """Two events 120 s apart span 120,001 intervals of 1 ms, past the limit."""
    trace = tmp_path / "two-events.ndjson"
    trace.write_bytes(_RECORD % b"0.5" + _RECORD % b"120.5")
    argv = _command_argv(command, trace, small_model, tmp_path)
    assert run_cli(*argv, "--interval-len", "1e-3") == 2
    assert "more than 100000" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "assess", "bench"])
def test_interval_index_past_float64_is_a_config_error(tmp_path, small_model, capsys, command):
    """At t = 1e300 and 1e-10 s intervals, t / L is infinite: no warning,
    and a config error that names the interval length."""
    trace = tmp_path / "far.ndjson"
    trace.write_bytes(_RECORD % b"1e300")
    argv = _command_argv(command, trace, small_model, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--interval-len", "1e-10") == 2
    assert capsys.readouterr().err.startswith("config error: interval length 1e-10 s")


@pytest.mark.parametrize("flags", [(), ("--container", "web-0")], ids=["any", "named"])
def test_train_on_an_empty_trace_is_a_data_error(tmp_path, capsys, flags):
    trace = tmp_path / "empty.ndjson"
    trace.write_bytes(b"")
    code = run_cli("train", "--trace", str(trace), "--model-out", str(tmp_path / "m.json"), *flags)
    assert code == 3
    assert capsys.readouterr().err.startswith("data error:")


def _command_argv(command, trace_path, model, tmp_path):
    """`command` over a trace, training a small model or loading `model`;
    `simulate` writes a baseline trace instead."""
    if command == "simulate":
        return [command, "--scenario", "baseline", "--out", str(tmp_path / "sim.ndjson")]
    argv = [command, "--trace", str(trace_path)]
    if command == "train":
        argv += ["--model-out", str(tmp_path / "m.json"), *_SMALL_TRAINING]
    else:
        argv += ["--model", str(model)]
    if command == "bench":
        argv += ["--out-dir", str(tmp_path / "out")]
    return argv


@pytest.mark.parametrize("command", ["assess", "bench"])
@pytest.mark.parametrize(
    "trace, model, flags, expected",
    [
        ("truncated", "corrupt", ("--interval-len", "inf"), (3, "data error")),
        (None, "corrupt", ("--interval-len", "inf"), (4, "model error")),
        (None, None, ("--k", "0", "--interval-len", "inf"), (2, "config error")),
    ],
    ids=["trace-model-interval", "model-interval", "k-interval"],
)
def test_the_first_bad_input_decides_the_error(
    tmp_path, short_baseline_trace, small_model, capsys, command, trace, model, flags, expected
):
    """The trace is read, then the model loaded, then the flags checked."""
    trace_path = short_baseline_trace
    if trace is not None:
        trace_path = tmp_path / "hostile.ndjson"
        trace_path.write_bytes(_HOSTILE_TRACES[trace])
    model_path = small_model
    if model is not None:
        model_path = tmp_path / "bad.json"
        model_path.write_text("{ not json", encoding="utf-8")
    code = run_cli(*_command_argv(command, trace_path, model_path, tmp_path), *flags)
    assert (code, capsys.readouterr().err.split(":")[0]) == expected


@pytest.fixture(scope="module")
def two_container_trace(tmp_path_factory, short_baseline_trace):
    """The web-0 baseline merged by timestamp with a db-0 baseline."""
    directory = tmp_path_factory.mktemp("traces")
    other = directory / "db.ndjson"
    assert run_cli(
        "simulate", "--scenario", "baseline", "--duration", "960", "--seed", "8",
        "--container", "db-0", "--out", str(other),
    ) == 0
    streams = [path.read_bytes().splitlines(keepends=True) for path in (short_baseline_trace, other)]
    path = directory / "two-containers.ndjson"
    path.write_bytes(b"".join(heapq.merge(*streams, key=lambda line: json.loads(line)["t"])))
    return path


def test_assess_and_bench_score_every_container_with_the_one_model(
    tmp_path, two_container_trace, small_model
):
    lines = two_container_trace.read_bytes().splitlines()
    assert sorted({json.loads(line)["c"] for line in lines}) == ["db-0", "web-0"]
    summaries = summarize_trace(read_trace_file(two_container_trace))

    out = tmp_path / "verdicts.ndjson"
    assert run_cli(
        "assess", "--trace", str(two_container_trace), "--model", str(small_model),
        "--k", "2", "--out", str(out),
    ) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    # in time order: every interval of both containers is occupied, so
    # the rows go window by window
    assert [row["start"] for row in rows] == sorted(row["start"] for row in rows)
    # the rows of scoring each container's intervals in turn, as a multiset
    detector = load_model(small_model)
    detector.set_threshold_k(2.0)
    per_container = assess_trace(
        [row for container_rows in summaries.values() for row in container_rows],
        detector,
        PipelineConfig(),
    )
    by_interval = operator.itemgetter("container", "interval")
    assert sorted(rows, key=by_interval) == sorted(
        (json.loads(record.to_json()) for record in per_container), key=by_interval
    )
    assert len({row["threshold"] for row in rows}) == 1

    report_path = tmp_path / "report.json"
    assert run_cli(
        "bench", "--trace", str(two_container_trace), "--model", str(small_model),
        "--out-dir", str(tmp_path / "sinks"), "--report-out", str(report_path),
    ) == 0
    report = json.loads(report_path.read_text())
    assert report["standard"]["intervals"] == report["adaptive"]["intervals"] == len(rows)
    assert report["standard"]["events"] == len(lines)


@pytest.fixture(scope="module")
def eight_second_trace(tmp_path_factory):
    """Seed 25 puts events where floor(t / L) is one interval off, for
    L = 0.1 and for L = 1e-3."""
    path = tmp_path_factory.mktemp("traces") / "eight-seconds.ndjson"
    code = run_cli(
        "simulate", "--scenario", "baseline", "--duration", "8", "--seed", "25", "--out", str(path)
    )
    assert code == 0
    return path


@pytest.mark.parametrize("interval_len", ["0.1", "1e-3"])
@pytest.mark.parametrize("command", ["train", "assess", "bench"])
def test_interval_length_that_is_not_a_whole_number_runs(
    tmp_path, eight_second_trace, small_model, command, interval_len
):
    """Each event lands in an interval whose bounds hold it, so no event
    is reported as foreign to its own interval."""
    argv = _command_argv(command, eight_second_trace, small_model, tmp_path)
    assert run_cli(*argv, "--interval-len", interval_len) == 0


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _documented_exits() -> dict[str, tuple[int, str]]:
    """{error name: (exit code, stderr prefix)} from the README's exit-code
    table: every backticked name in a row's third column gets that row's
    code and prefix."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Exit codes\n", 1)[1].split("\n## ", 1)[0]
    documented: dict[str, tuple[int, str]] = {}
    rows = re.findall(r"^\| (\d+) \| `([a-z]+ error:)` \| (.*) \|$", section, re.M)
    for code, prefix, raised_as in rows:
        for name in re.findall(r"`(\w+)`", raised_as):
            assert name not in documented, f"{name} is documented twice"
            documented[name] = (int(code), prefix)
    return documented


def test_every_error_maps_to_a_documented_exit_code(monkeypatch, capsys):
    """Each error exits with the README's code and stderr prefix, and the
    README's table names every error class, ValueError and OSError."""
    exits = {}
    for error in (*_subclasses(errors.VaeguardError), ValueError, OSError):
        def fail(args, error=error):
            raise error.__new__(error)

        monkeypatch.setattr(cli, "cmd_simulate", fail)
        code = run_cli("simulate", "--scenario", "baseline", "--out", "unused")
        exits[error.__name__] = (code, capsys.readouterr().err.partition(":")[0] + ":")
    assert set(exits) == {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.VaeguardError)
    } - {"VaeguardError"} | {"ValueError", "OSError"}
    assert exits == _documented_exits()
    assert {name for name, (code, _) in exits.items() if code not in (2, 3, 4, 5)} == set()


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


def test_bench_to_an_endpoint_reports_the_bytes_it_received(
    tmp_path, short_baseline_trace, small_model, bulk_server
):
    endpoint, requests = bulk_server
    report_path = tmp_path / "report.json"
    assert run_cli(
        "bench", "--trace", str(short_baseline_trace), "--model", str(small_model),
        "--out-dir", str(tmp_path / "sinks"), "--endpoint", endpoint,
        "--report-out", str(report_path),
    ) == 0
    report = json.loads(report_path.read_text())
    standard = report["standard"]["bytes_published"]
    adaptive = report["adaptive"]["bytes_published"]
    sizes = [len(body) for _, _, body in requests]
    assert sum(sizes) == standard + adaptive
    # the standard run is flushed before the adaptive one starts
    first_adaptive = next(i for i in range(len(sizes) + 1) if sum(sizes[:i]) == standard)
    assert 1 <= len(sizes) - first_adaptive <= 2
    assert adaptive * 20 < standard


@pytest.mark.parametrize("batch_size", ["500", "1000000"], ids=["at-publish", "at-flush"])
def test_bench_to_a_refused_endpoint_is_a_sink_error(
    tmp_path, short_baseline_trace, small_model, capsys, batch_size
):
    code = run_cli(
        "bench", "--trace", str(short_baseline_trace), "--model", str(small_model),
        "--out-dir", str(tmp_path / "sinks"), "--endpoint", "http://127.0.0.1:9",
        "--bulk-batch-size", batch_size,
    )
    err = capsys.readouterr().err
    assert code == 5
    assert err.startswith("sink error:") and "Traceback" not in err


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


def test_config_file_after_a_leading_verbose_flag(tmp_path, short_baseline_trace):
    """The file's flags go after the subcommand, not after `-v`."""
    config = tmp_path / "run.cfg"
    config.write_text(
        "accumulation-target = 32\nepochs = 10\nbatch_size = 8\n"
        "hidden-units = 8,8\nlatent-dim = 4\n",
        encoding="utf-8",
    )
    model = tmp_path / "m.json"
    code = run_cli(
        "-v", "--config", str(config), "train",
        "--trace", str(short_baseline_trace), "--model-out", str(model),
    )
    assert code == 0
    assert json.loads(model.read_text())["train_config"]["epochs"] == 10


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
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "config file" in err


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
