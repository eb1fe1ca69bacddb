"""The README's Library example runs as written, and its config file parses."""

import re
from pathlib import Path

import numpy as np

from vaeguard import cli
from vaeguard.vae import VaeStabilityDetector, load_model

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", library, re.S).group(1)


def test_readme_library_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    exec(compile(library_block(), str(README), "exec"), namespace)
    assert isinstance(load_model(tmp_path / "web-0.model.json"), VaeStabilityDetector)
    assert set(np.unique(namespace["verdicts"]).tolist()) <= {1, -1}


def test_readme_config_file_block_parses(tmp_path):
    section = README.read_text(encoding="utf-8").split("\n### Config file\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    config = tmp_path / "pipeline.cfg"
    config.write_text(block, encoding="utf-8")
    assert cli._load_config_flags(str(config)) == [
        "--epochs", "100", "--accumulation-target", "120", "--k", "3.0",
    ]
