"""The CPU count that sizes ucfw's worker pools."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13+
        return os.process_cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
