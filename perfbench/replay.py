"""Replay evidence certificates with the program's independent checker.

    python replay.py CERTIFICATES RESULTS

``CERTIFICATES`` is a JSON object ``{job name: certificate}``; each is
passed to ``repro.certify.check_certificate`` (naive evaluation and
direct homomorphism replay, none of the engine's fast paths) and the
outcome written to ``RESULTS`` as ``{job: [valid, claims, failures,
seconds]}``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def main() -> int:
    from repro.certify import check_certificate

    certificates = json.loads(Path(sys.argv[1]).read_text())
    results = {}
    for name, certificate in certificates.items():
        start = time.perf_counter()
        outcome = check_certificate(certificate)
        results[name] = [outcome.valid, outcome.claims,
                         list(outcome.failures)[:3],
                         time.perf_counter() - start]
    Path(sys.argv[2]).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
