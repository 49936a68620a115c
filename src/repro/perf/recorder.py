"""The commit under measurement, for ``bench/run.py``'s context line.

``bench/run.py`` imports :func:`git_sha` from here, so it stays until the
benchmark carries its own copy; nothing else in the package is used.
"""

from __future__ import annotations

import subprocess


def git_sha() -> str:
    """The commit under measurement (``unknown`` outside a git checkout)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip()
    except Exception:  # noqa: BLE001 — the context line is still useful without it
        return "unknown"
