"""What a process loads at start-up: each check runs in a fresh interpreter,
since this one has long since imported everything."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vaeguard

_SRC = str(Path(vaeguard.__file__).resolve().parents[1])
_HTTP_MODULES = ["http.client", "urllib.error", "urllib.request", "ssl"]
# prints which of the modules named on the command line are loaded
_LOADED = "[m for m in sys.argv[1:] if m in sys.modules]"


def _fresh(code: str, *args: str):
    """The JSON a fresh interpreter prints after running `code`."""
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_a_file_sink_run_loads_neither_the_http_client_nor_the_generators(tmp_path):
    loaded = _fresh(
        "import json, sys\n"
        "import vaeguard, vaeguard.pipeline, vaeguard.sinks, vaeguard.cli\n"
        f"vaeguard.sinks.FileSink({str(tmp_path / 'out.ndjson')!r}).close()\n"
        f"print(json.dumps({_LOADED}))\n",
        *_HTTP_MODULES, "vaeguard.scenarios",
    )
    assert loaded == []


def test_building_a_bulk_sink_loads_the_http_client():
    before, after = _fresh(
        "import json, sys\n"
        "from vaeguard.sinks import HttpBulkSink\n"
        f"before = {_LOADED}\n"
        "HttpBulkSink('http://127.0.0.1:9')\n"
        f"print(json.dumps([before, {_LOADED}]))\n",
        *_HTTP_MODULES,
    )
    assert before == []
    assert after == _HTTP_MODULES


def test_the_package_exports_the_generators_when_first_asked():
    loaded_at_import, same, exported = _fresh(
        "import json, sys\n"
        "import vaeguard\n"
        "loaded = 'vaeguard.scenarios' in sys.modules\n"
        "from vaeguard import gen_baseline\n"
        "import vaeguard.scenarios\n"
        "namespace = {}\n"
        "exec('from vaeguard import *', namespace)\n"
        "exported = sorted(set(namespace) - {'__builtins__'})\n"
        "print(json.dumps([loaded, gen_baseline is vaeguard.scenarios.gen_baseline, exported]))\n"
    )
    assert loaded_at_import is False
    assert same is True
    assert exported == sorted(vaeguard.__all__)


def test_an_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vaeguard.no_such_name  # noqa: B018
    assert not hasattr(vaeguard, "scenario_config")
