"""Start-up hook of traced benchmark processes.

Python imports ``sitecustomize`` from ``sys.path`` at start-up, so a
process launched with this directory on ``PYTHONPATH`` and
``E2E_TRACE_DIR`` set records layer spans (see ``e2etrace``).  Untraced
runs never put this directory on the path.
"""

import os

if os.environ.get("E2E_TRACE_DIR"):
    import e2etrace

    e2etrace.install(os.environ["E2E_TRACE_DIR"])
