#!/usr/bin/env python3
"""Groups the samples of tools/pcsample (libpcsample.so) by function.

Usage:
  pcreport.py [--top N] FILE...

Each FILE holds "<count> <object> <address> <symbol>" lines. Every distinct
address goes through `addr2line -i -f -C -a -e <object>`, which gives its
inline chain from the object's DWARF (build RelWithDebInfo), innermost
frame first. Two tables follow:

  by function  the last frame of the chain: the real function the sample ran
               in, coroutine bodies (GCC's `.actor` clones) included;
  by leaf      the first frame: the inlined code itself.

The sampler's timer runs on wall time, so samples also land while the thread
is blocked in a system call: the read and wait4 of a harness waiting on a
child over a pipe, a sleep, a poll. Those are not host cost of the program
and are dropped (their dladdr symbol or leaf names a blocking call; see
BLOCKED) and counted. A sample carries its inline chain only, not its
callers, so a share is of the whole process.
"""

import argparse
import collections
import re
import subprocess
import sys

BLOCKED = re.compile(
    r"^(__)?(GI_)?(__)?(libc_)?(read|wait4|waitpid|waitid|poll|ppoll|select|"
    r"pselect6?|epoll_wait|epoll_pwait|nanosleep|clock_nanosleep|pause|sigsuspend|"
    r"futex|pthread_cond_wait|pthread_cond_timedwait|syscall)(64)?(_nocancel)?$")


def load(paths):
    """(object, address) -> [samples, dladdr symbol]."""
    samples = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                parts = line.split()
                if len(parts) != 4:
                    continue
                key = (parts[1], int(parts[2], 16))
                entry = samples.setdefault(key, [0, parts[3]])
                entry[0] += int(parts[0])
    return samples


def chains(obj, addrs):
    """address -> [function, ...], innermost first, from addr2line."""
    if obj == "?":
        return {a: ["??"] for a in addrs}
    text = "\n".join(hex(a) for a in addrs) + "\n"
    try:
        out = subprocess.run(["addr2line", "-i", "-f", "-C", "-a", "-e", obj],
                             input=text, capture_output=True, text=True,
                             check=True).stdout
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"pcreport: addr2line failed on {obj}: {e}", file=sys.stderr)
        return {a: ["??"] for a in addrs}
    result = {}
    lines = out.splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].startswith("0x"):
            i += 1
            continue
        addr = int(lines[i], 16)
        i += 1
        funcs = []
        # (function, file:line) pairs until the next address line.
        while i < len(lines) and not lines[i].startswith("0x"):
            funcs.append(lines[i])
            i += 2
        result[addr] = funcs or ["??"]
    return result


def short(name, width=100):
    return name if len(name) <= width else name[:width - 3] + "..."


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    args = ap.parse_args()

    samples = load(args.files)
    by_obj = collections.defaultdict(list)
    for (obj, addr) in samples:
        by_obj[obj].append(addr)
    chain = {}
    for obj, addrs in by_obj.items():
        for addr, funcs in chains(obj, sorted(addrs)).items():
            chain[(obj, addr)] = funcs

    total = sum(n for n, _ in samples.values())
    blocked = 0
    by_func = collections.Counter()
    by_leaf = collections.Counter()
    for key, (n, sym) in samples.items():
        funcs = chain.get(key, ["??"])
        leaf = funcs[0]
        if BLOCKED.match(sym) or BLOCKED.match(leaf.split("(")[0]):
            blocked += n
            continue
        outer = funcs[-1]
        if outer == "??" and sym != "-":
            outer = sym  # no DWARF (system libraries): the dynamic symbol
        if leaf == "??" and sym != "-":
            leaf = sym
        by_func[(key[0].rsplit("/", 1)[-1], outer)] += n
        by_leaf[leaf] += n

    kept = total - blocked
    print(f"samples: {total} total, {blocked} blocked in a system call (dropped), "
          f"{kept} kept")
    if kept == 0:
        return 0
    print(f"\nby function (enclosing frame), top {args.top}:")
    for (obj, f), n in by_func.most_common(args.top):
        print(f"  {100.0 * n / kept:6.2f}%  {n:8d}  {short(f)}  [{obj}]")
    print(f"\nby leaf (innermost inlined frame), top {args.top}:")
    for f, n in by_leaf.most_common(args.top):
        print(f"  {100.0 * n / kept:6.2f}%  {n:8d}  {short(f)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
