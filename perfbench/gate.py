"""Output gate, and the tail-percentile rule for operation times.

Every operation's output is reduced to a canonical JSON text and hashed.  The
digest is compared with the reference recorded at the benchmark's baseline,
and a backend-neutral form of the output is compared between the Q and Fp
runs of the same operation.  A mismatch fails the operation; it never aborts
the run.
"""

from __future__ import annotations

import hashlib
import json


def digest(obj) -> str:
    """sha256 of the canonical JSON text of obj."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


class Gate:
    """Collects one pass's outputs and decides which operations failed.

    reference: {op key: {backend: digest}} for the operations that have a
    recorded output, or None to record instead of compare."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.recorded: dict = {}
        self.cross: dict = {}          # op key -> {backend: cross digest}
        self.failures: list[str] = []

    def check(self, key: str, backend: str, output, cross, pinned: bool) -> bool:
        """Record one operation's output; False when it differs from the
        reference, or when a pinned operation has no reference."""
        d = digest(output)
        self.recorded.setdefault(key, {})[backend] = d
        self.cross.setdefault(key, {})[backend] = digest(cross)
        if self.reference is None:
            return True
        want = self.reference.get(key, {}).get(backend)
        if want is None and pinned:
            self.failures.append(f"{key} [{backend}]: no reference output recorded")
            return False
        if want is not None and want != d:
            self.failures.append(f"{key} [{backend}]: output digest {d[:12]} "
                                 f"differs from reference {want[:12]}")
            return False
        return True

    def fail(self, key: str, backend: str, reason: str) -> None:
        self.failures.append(f"{key} [{backend}]: {reason}")

    def cross_check(self) -> int:
        """Number of operations whose Q and Fp outputs disagree; each such
        disagreement fails the Fp run of the operation."""
        bad = 0
        for key, by_backend in self.cross.items():
            if len(by_backend) == 2 and len(set(by_backend.values())) != 1:
                bad += 1
                self.failures.append(f"{key}: Q and Fp outputs disagree")
        self.cross = {}
        return bad


def tail_percentile(values, beyond: int = 10) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least `beyond`
    samples above it.  With `beyond` samples or fewer no percentile
    qualifies, and the maximum is returned as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return 100.0, xs[-1]
    rank = n - beyond          # 1-based rank of the sample with `beyond` above it
    return 100.0 * rank / n, xs[rank - 1]
