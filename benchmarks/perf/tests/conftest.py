"""Self-tests of the performance ledger.  Run explicitly:

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q

Tier-1's ``testpaths`` stays ``tests``; nothing here runs there.
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent.parent
ROOT = PERF.parent.parent
for entry in (str(ROOT / "src"), str(PERF)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
