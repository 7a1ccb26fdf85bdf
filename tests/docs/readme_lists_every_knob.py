#!/usr/bin/env python3
"""Fails unless README.md's Knobs block is exactly `magesim_cli --help`.

The help text is generated from the knob table (src/core/knobs.h) and the
CLI's own flags. The first fenced block under README's "## Knobs" heading
must equal it verbatim, so a new row without a README entry fails here, and
so does a README entry left behind for a deleted knob.

Usage: readme_lists_every_knob.py <magesim_cli> <README.md>
"""
import difflib
import re
import subprocess
import sys


def knobs_block(readme):
    """The first ``` block after the "## Knobs" heading, or None."""
    m = re.search(r"^## Knobs\n.*?^```\n(.*?)^```$", readme, re.M | re.S)
    return m.group(1) if m else None


def main():
    cli, readme_path = sys.argv[1], sys.argv[2]
    help_text = subprocess.run([cli, "--help"], check=True, capture_output=True, text=True).stdout
    with open(readme_path, encoding="utf-8") as f:
        block = knobs_block(f.read())
    if block is None:
        print("README.md has no fenced block under '## Knobs'")
        return 1
    if block == help_text:
        print("README.md Knobs block matches magesim_cli --help")
        return 0
    sys.stdout.writelines(difflib.unified_diff(
        block.splitlines(keepends=True), help_text.splitlines(keepends=True),
        "README.md Knobs block", "magesim_cli --help"))
    return 1


if __name__ == "__main__":
    sys.exit(main())
