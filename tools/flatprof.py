#!/usr/bin/env python3
"""Flat sampling profiler for one child process (Linux, x86-64).

    python3 tools/flatprof.py [--] PROGRAM [ARG...] | head -40

Starts PROGRAM as a ptrace child, stops it every 0.5 ms with a
thread-directed SIGURG, reads the main thread's instruction pointer, and
resumes it with the signal suppressed. When the child exits, it prints
one line per function, most samples first: samples, share of all
samples, and the function's name. Names come from `nm` on the executable
(OCaml names lose their `caml` prefix and numeric stamp:
`Sim__Runtime.popcount`); addresses in a shared library count under
`[libname]`. The child's standard output goes to standard error, so the
profile alone is on standard output.

Limits:
- x86-64 Linux only (it reads `rip` from `user_regs_struct`);
- it traces only the child it starts, and samples only that child's main
  thread: work on other domains or threads is not seen;
- a flat profile: self samples per function, no call graph;
- stopping the child costs two context switches per sample, so wall time
  grows; the shares, not the times, are the result;
- needs ptrace on its own child (`kernel.yama.ptrace_scope` at most 1).
"""

import bisect
import collections
import ctypes
import os
import re
import signal
import subprocess
import sys
import time

PTRACE_TRACEME = 0
PTRACE_CONT = 7
PTRACE_GETREGS = 12
RIP_INDEX = 16  # user_regs_struct: r15 .. orig_rax, then rip
INTERVAL_S = 0.5e-3

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.restype = ctypes.c_long
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
SYS_TGKILL = 234


def ptrace(req, pid, addr=None, data=None):
    r = libc.ptrace(req, pid, addr, data)
    if r == -1:
        err = ctypes.get_errno()
        raise OSError(err, f"ptrace({req}): {os.strerror(err)}")
    return r


def tgkill(pid, sig):
    libc.syscall(SYS_TGKILL, pid, pid, sig)


def short_name(sym):
    """`camlSim__Runtime.popcount_1178` -> `Sim__Runtime.popcount`."""
    if sym.startswith("caml") and len(sym) > 4 and sym[4].isupper():
        sym = re.sub(r"_\d+$", "", sym[4:])
    return sym


def load_symbols(path):
    """Sorted (address, name) of the text symbols of `path`, via nm."""
    out = subprocess.run(
        ["nm", "-n", "--defined-only", path], check=True, capture_output=True, text=True
    ).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "tTwW":
            addrs.append(int(parts[0], 16))
            names.append(short_name(parts[2]))
    return addrs, names


def is_pie(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return header[16] == 3  # e_type ET_DYN


def mappings(pid):
    """(start, end, offset, path) of each file-backed executable mapping."""
    maps = []
    with open(f"/proc/{pid}/maps") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 6 and "x" in parts[1]:
                start, end = (int(x, 16) for x in parts[0].split("-"))
                maps.append((start, end, int(parts[2], 16), parts[5]))
    return maps


def main():
    cmd = sys.argv[1:]
    if cmd[:1] == ["--"]:
        cmd = cmd[1:]
    if not cmd:
        sys.exit("usage: flatprof.py [--] PROGRAM [ARG...]")
    exe = os.path.realpath(
        cmd[0] if os.sep in cmd[0] else subprocess.check_output(["which", cmd[0]], text=True).strip()
    )
    addrs, names = load_symbols(exe)

    pid = os.fork()
    if pid == 0:
        try:
            ptrace(PTRACE_TRACEME, 0)
            os.dup2(2, 1)
            os.execv(exe, cmd)
        finally:
            os._exit(127)
    _, status = os.waitpid(pid, 0)  # the stop at exec
    if not os.WIFSTOPPED(status):
        sys.exit(f"flatprof: {cmd[0]} did not start")
    base = 0
    for start, _, offset, path in mappings(pid):
        if is_pie(exe) and os.path.realpath(path) == exe:
            base = start - offset
            break
    libs = []
    regs = (ctypes.c_ulonglong * 27)()
    samples = collections.Counter()
    total = 0
    ptrace(PTRACE_CONT, pid)
    exit_code = None
    while exit_code is None:
        time.sleep(INTERVAL_S)
        tgkill(pid, signal.SIGURG)
        while True:
            _, status = os.waitpid(pid, 0)
            if os.WIFEXITED(status):
                exit_code = os.WEXITSTATUS(status)
                break
            if os.WIFSIGNALED(status):
                exit_code = 128 + os.WTERMSIG(status)
                break
            sig = os.WSTOPSIG(status)
            if sig == signal.SIGURG:
                ptrace(PTRACE_GETREGS, pid, None, ctypes.addressof(regs))
                samples[regs[RIP_INDEX]] += 1
                # shared libraries load after exec: re-read the mappings now and then
                if total % 256 == 0:
                    libs = [
                        (s, e, os.path.basename(path))
                        for s, e, _, path in mappings(pid)
                        if os.path.realpath(path) != exe
                    ]
                total += 1
                ptrace(PTRACE_CONT, pid)
                break
            # any other signal: hand it on and keep waiting for ours
            ptrace(PTRACE_CONT, pid, None, sig)

    by_fn = collections.Counter()
    for ip, count in samples.items():
        rel = ip - base
        i = bisect.bisect_right(addrs, rel) - 1
        lib = next((name for s, e, name in libs if s <= ip < e), None)
        if lib is not None:
            by_fn[f"[{lib}]"] += count
        elif i >= 0:
            by_fn[names[i]] += count
        else:
            by_fn["[unknown]"] += count
    try:
        print(f"# {total} samples, every {INTERVAL_S * 1e3} ms, {' '.join(cmd)} (exit {exit_code})")
        for name, count in by_fn.most_common():
            print(f"{count:8d} {100.0 * count / max(total, 1):6.2f}%  {name}")
        sys.stdout.flush()
    except BrokenPipeError:  # a reader such as `head` stopped early
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
