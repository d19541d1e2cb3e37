"""The package runs on the standard library alone.

``setup.py`` declares no runtime dependencies, so importing the library, the
CLI and the mapping service in a fresh interpreter must load nothing but
``repro`` and standard-library modules.  The check diffs ``sys.modules``
around the imports because ``site`` may preload third-party helpers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import json, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import repro, repro.cli, repro.service
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_imports_load_only_the_standard_library():
    src = str(Path(repro.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", _PROBE.format(src=src)],
        check=True,
        capture_output=True,
        text=True,
    )
    added = {name.partition(".")[0] for name in json.loads(probe.stdout)}
    foreign = sorted(
        name
        for name in added
        if name != "repro"
        and name not in sys.stdlib_module_names
        and not (name.startswith("__") and name.endswith("__"))
    )
    assert foreign == [], f"non-stdlib modules loaded by import repro: {foreign}"
