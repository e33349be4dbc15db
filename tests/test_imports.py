"""Every ``repro.<subpackage>`` imports on its own, without scipy.

An import cycle between subpackages stays hidden as long as something
else imports the cycle's modules in a lucky order first (the CLI and
the test suite both import ``repro`` broadly).  This test starts a
fresh interpreter and imports each subpackage from a state where no
``repro`` module is loaded: third-party modules stay cached between
subpackages, so the check costs one numpy import, not one per
subpackage, while the ``repro`` module graph is walked from scratch
every time.

Once every subpackage is imported, scipy must not be loaded: the
package depends on numpy alone, and a ``scipy.stats`` import would
cost about a second of every ``repro`` start-up.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import importlib, sys, traceback
failed = []
for name in sys.argv[1:]:
    for mod in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[mod]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name + ": " + traceback.format_exc().splitlines()[-1])
if "scipy" in sys.modules:
    failed.append("scipy was imported")
print("\\n".join(failed))
sys.exit(1 if failed else 0)
"""


def test_every_subpackage_imports_in_a_fresh_interpreter():
    subpackages = sorted(
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    )
    assert "repro.serve" in subpackages
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, *subpackages],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
