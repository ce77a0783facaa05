"""Self-tests of the benchmark (``python -m pytest bench/tests``); they are
not part of the repo's tier-1 suite."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
