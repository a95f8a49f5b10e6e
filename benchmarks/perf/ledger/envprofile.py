"""The environment facts that must match before two result files may be compared."""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

__all__ = ["environment_profile", "COMPARED_KEYS"]

#: keys two profiles must agree on; the load average is recorded, not compared.
COMPARED_KEYS = ("cpu_model", "nproc", "python", "python_build", "container", "governor")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.lower().startswith(("model name", "hardware", "cpu model")):
            return line.split(":", 1)[1].strip()
    return platform.processor() or platform.machine()


def _container() -> str:
    if os.path.exists("/.dockerenv") or os.path.exists("/run/.containerenv"):
        return "container"
    cgroup = _read("/proc/1/cgroup") or ""
    if any(word in cgroup for word in ("docker", "kubepods", "containerd", "lxc")):
        return "container"
    return "bare"


def environment_profile() -> dict:
    governor = _read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    try:
        load_1m = os.getloadavg()[0]
    except OSError:
        load_1m = None
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "python_build": f"{' '.join(platform.python_build())}; {platform.python_compiler()}",
        "container": _container(),
        "governor": governor.strip() if governor else "unreadable",
        "load_1m_at_start": load_1m,
        "platform": sys.platform,
    }
