#!/usr/bin/env python3
"""Print one sha256 per canonical output of the engine.

    python3 scripts/report_digests.py

Covers every CLI command under --json on every tests/data file, on Q and on
Fp, hashing stdout and stderr; and scripts/run_corpus.py --json with its
timing field removed, on both backends.  Each line also shows the exit code.
Two commits produce the same canonical output exactly when this script prints
the same lines for both, so a diff of its output is the byte-identical gate
for a change that must not alter results.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dglift.cli import COMMANDS, main as cli_main  # noqa: E402

BACKENDS = ("Q", "Fp")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(argv: list[str]) -> tuple[str, int]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return sha(f"--stdout--\n{out.getvalue()}--stderr--\n{err.getvalue()}"), code


def corpus_digest(backend: str) -> tuple[str, int]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_corpus.py"),
         "--field", backend, "--json"],
        capture_output=True, text=True, env=env, check=False)
    report = json.loads(proc.stdout)
    del report["seconds"]
    return sha(json.dumps(report, sort_keys=True, indent=1)), proc.returncode


def main() -> int:
    # reports name the instance path, so pass paths relative to the repo root
    os.chdir(ROOT)
    data = sorted(p.relative_to(ROOT).as_posix()
                  for p in (ROOT / "tests" / "data").glob("*.dg"))
    for backend in BACKENDS:
        for command in sorted(COMMANDS):
            for path in data:
                digest, code = cli_digest([command, path, "--field", backend, "--json"])
                print(f"{digest}  cli {command} {path} {backend} exit={code}")
        digest, code = corpus_digest(backend)
        print(f"{digest}  run_corpus {backend} exit={code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
