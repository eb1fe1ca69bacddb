"""Every module of the package parses under the Python 3.10 grammar, the
oldest Python that pyproject.toml allows.

This checks grammar only: syntax that 3.10 rejects (`except*`, say) fails
here under any newer interpreter, but a call to a library API that 3.10
lacks parses and is not caught.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vaeguard"


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_parses_under_the_python_3_10_grammar(module):
    source = module.read_text(encoding="utf-8")
    ast.parse(source, filename=str(module), feature_version=(3, 10))


def test_the_check_rejects_syntax_newer_than_3_10():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
