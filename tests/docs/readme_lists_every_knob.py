#!/usr/bin/env python3
"""Fails when README.md misses a flag or MAGESIM_* variable of `magesim_cli --help`.

The help text is generated from the knob table (src/core/knobs.h) and the
CLI's own flags, so a new row without a README entry fails here.

Usage: readme_lists_every_knob.py <magesim_cli> <README.md>
"""
import re
import subprocess
import sys


def main():
    cli, readme_path = sys.argv[1], sys.argv[2]
    help_text = subprocess.run([cli, "--help"], check=True, capture_output=True, text=True).stdout
    names = set(re.findall(r"--[a-z][a-z0-9-]*|MAGESIM_[A-Z0-9_]+", help_text))
    if not names:
        print("no flags found in --help output")
        return 1
    with open(readme_path, encoding="utf-8") as f:
        readme = f.read()
    missing = sorted(n for n in names if not re.search(re.escape(n) + r"(?![A-Za-z0-9_-])", readme))
    for n in missing:
        print(f"README.md does not mention {n}")
    print(f"{len(names) - len(missing)}/{len(names)} knob spellings documented")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
