"""The byte-identical gate: scripts/report_digests.py prints exactly the
lines recorded in tests/data/report_digests.txt.

A change that alters a canonical report, a tensor-power basis, an operator,
a Hom-space invariant, a solve or the element arithmetic on purpose records
the new output in the same change:

    python scripts/report_digests.py > tests/data/report_digests.txt
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_report_digests_match_the_recorded_output():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digests.py")],
                          capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    want = (ROOT / "tests" / "data" / "report_digests.txt").read_text()
    assert proc.stdout.splitlines() == want.splitlines()
