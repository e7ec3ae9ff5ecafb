"""Path wiring for the ledger's self-tests (not part of tier-1:
``python -m pytest benchmarks/ledger/tests -q``)."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(LEDGER), str(LEDGER.parents[1] / "src")]
