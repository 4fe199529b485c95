"""A replica server started by hand imports only what it serves.

A live trial forks its servers from the harness, so they import nothing;
but ``python -m repro.live.server`` starts a fresh interpreter and pays for
whatever ``repro.live.server`` pulls in, as every ``c3-repro`` command pays
for ``import repro``.  Checked in a fresh interpreter by the set of loaded
modules, not by a clock.
"""

import json

import pytest

_LOADED = "import json, sys; print(json.dumps(sorted(sys.modules)))"


@pytest.mark.parametrize(
    "statement, expected",
    [
        ("import repro", {"repro"}),
        ("import repro.live", {"repro", "repro.live", "repro.live.protocol"}),
        (
            "import repro.live.server",
            {"repro", "repro.live", "repro.live.protocol", "repro.live.server", "repro.replica"},
        ),
    ],
)
def test_imports_load_no_subpackage_they_do_not_use_and_no_numpy(fresh_python, statement, expected):
    done = fresh_python("-c", f"{statement}\n{_LOADED}")
    assert done.returncode == 0, done.stderr
    loaded = {name for name in json.loads(done.stdout) if name == "numpy" or name.split(".")[0] == "repro"}
    assert loaded == expected
