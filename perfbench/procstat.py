"""CPU seconds and peak RSS read from /proc, without psutil.

``tree_cpu_s`` sums utime + stime over a process and every descendant
(for a local Ray session: the GCS, the raylet and its workers, which
all descend from the driver). Read it just before and just after a
timed call; the difference is the CPU the call cost. A process that
exits inside the window loses its share, and the reaped-children
counters of the survivors add it back only for processes they waited
on, so short-lived helpers can be under-counted.
"""

from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> tuple[int, float] | None:
    """(ppid, utime + stime seconds) of one process, None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode()
    except OSError:
        return None
    # the command name may contain spaces; the fields after it do not
    fields = raw[raw.rindex(")") + 2 :].split()
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICK


def tree_cpu_s(root: int | None = None) -> float:
    root = os.getpid() if root is None else root
    stats = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                stats[int(name)] = st
    children: dict[int, list[int]] = {}
    for pid, (ppid, _) in stats.items():
        children.setdefault(ppid, []).append(pid)
    total, todo = 0.0, [root]
    while todo:
        pid = todo.pop()
        if pid in stats:
            total += stats[pid][1]
        todo.extend(children.get(pid, ()))
    return total


def tree_pids(root: int | None = None) -> list[int]:
    """Descendants of ``root`` (default: this process), deepest last."""
    root = os.getpid() if root is None else root
    parent = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                parent[int(name)] = st[0]
    out, frontier = [], [root]
    while frontier:
        nxt = [p for p, pp in parent.items() if pp in frontier]
        out.extend(nxt)
        frontier = nxt
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process (VmHWM), in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reset_peak_rss() -> None:
    """Restart VmHWM from the current RSS (Linux >= 4.0: write 5 to
    clear_refs), so a peak can be taken over one timed call."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode()
    except OSError:
        return False
    return raw[raw.rindex(")") + 2] != "Z"


def reap_children() -> None:
    """Collect the exit status of any child that has ended."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return
