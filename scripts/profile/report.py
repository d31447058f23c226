#!/usr/bin/env python3
"""Inclusive CPU shares from the sample files `sampler.c` writes.

    scripts/profile/report.py [--top N] [--match TEXT] [--lines] profile.<pid> [...]

A function's inclusive share is the fraction of samples with that
function in any frame, inlined frames included; its self share is the
fraction whose innermost frame it is. `--lines` lists self shares by
innermost `function @file:line` instead, the source line each sample
stopped on (inlined frames resolved, so a hot line inside an inlined
helper is named as such), to find the statement a hot function spends
its time in. Each sampled address is mapped
from the process's address space to a file offset through the file's
line in /proc/self/maps, then to the virtual address `llvm-symbolizer`
expects through the file's ELF LOAD program headers: the text segment
usually does not sit at vaddr = offset (lld and GNU ld put it at offset
+ 0x1000), so without this step most frames name the wrong function.
Needs `llvm-symbolizer` on PATH (or in $LLVM_SYMBOLIZER).
"""

import argparse
import collections
import os
import re
import struct
import subprocess
import sys

PT_LOAD = 1

# Escapes of Rust's legacy symbol mangling that llvm-symbolizer leaves in.
RUST_ESCAPES = {
    "$LT$": "<", "$GT$": ">", "$LP$": "(", "$RP$": ")", "$C$": ",",
    "$RF$": "&", "$BP$": "*", "$SP$": "@", "$u20$": " ", "$u27$": "'",
    "$u5b$": "[", "$u5d$": "]", "$u7b$": "{", "$u7d$": "}", "$u7e$": "~",
}


def tidy(name):
    """A demangled name without the legacy escapes and the hash suffix."""
    name = re.sub(r"::h[0-9a-f]{16}( \(\.llvm\.\d+\))?$", "", name)
    if "$" in name:
        # A path segment that starts with an escape carries a leading `_`.
        name = re.sub(r"(^|::|\.\.)_\$", r"\1$", name)
        name = re.sub(r"\$[A-Za-z0-9]+\$", lambda m: RUST_ESCAPES.get(m.group(0), m.group(0)), name)
        name = name.replace("..", "::")
    return name


def load_segments(path):
    """(p_offset, p_vaddr, p_filesz) of each LOAD header of an ELF64 file."""
    with open(path, "rb") as f:
        header = f.read(64)
        if header[:4] != b"\x7fELF" or header[4] != 2:
            return []
        e_phoff, = struct.unpack_from("<Q", header, 0x20)
        e_phentsize, e_phnum = struct.unpack_from("<HH", header, 0x36)
        f.seek(e_phoff)
        table = f.read(e_phentsize * e_phnum)
    segments = []
    for i in range(e_phnum):
        p_type, _flags, p_offset, p_vaddr, _paddr, p_filesz = struct.unpack_from(
            "<IIQQQQ", table, i * e_phentsize
        )
        if p_type == PT_LOAD:
            segments.append((p_offset, p_vaddr, p_filesz))
    return segments


class AddressSpace:
    """The file-backed mappings of one sampled process."""

    def __init__(self, map_lines):
        self.maps = []
        for line in map_lines:
            fields = line.split(maxsplit=5)
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue
            start, end = (int(x, 16) for x in fields[0].split("-"))
            self.maps.append((start, end, int(fields[2], 16), fields[5].strip()))
        self.segments = {}

    def locate(self, pc):
        """`(path, vaddr)` of a sampled address, or None off any file."""
        for start, end, offset, path in self.maps:
            if start <= pc < end:
                file_offset = pc - start + offset
                if path not in self.segments:
                    try:
                        self.segments[path] = load_segments(path)
                    except OSError:
                        self.segments[path] = []
                for p_offset, p_vaddr, p_filesz in self.segments[path]:
                    if p_offset <= file_offset < p_offset + p_filesz:
                        return path, file_offset - p_offset + p_vaddr
                return None
        return None


def symbolize(path, addresses):
    """`(function, file:line)` pairs per address, innermost inlined
    frame first."""
    symbolizer = os.environ.get("LLVM_SYMBOLIZER", "llvm-symbolizer")
    query = "".join(f"0x{a:x}\n" for a in addresses)
    out = subprocess.run(
        [symbolizer, "--inlines", "--demangle", f"--obj={path}"],
        input=query,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    frames = []
    for block in out.split("\n\n")[: len(addresses)]:
        lines = block.strip("\n").split("\n")
        # Pairs of (function, file:line:column).
        frames.append(
            [
                (tidy(lines[i]), location(lines[i + 1] if i + 1 < len(lines) else ""))
                for i in range(0, len(lines), 2)
                if lines[i] != "??"
            ]
        )
    return dict(zip(addresses, frames))


def location(file_line_column):
    """`file:line` (the file's base name) of a symbolizer location."""
    parts = file_line_column.rsplit(":", 2)
    if len(parts) < 3 or parts[0] in ("", "??"):
        return "??"
    return f"{os.path.basename(parts[0])}:{parts[1]}"


def read(paths):
    """Peak RSS per file and the samples as lists of `(function,
    file:line)` frames, innermost first."""
    rss, dropped, samples = [], 0, []
    for path in paths:
        raw, map_lines = [], []
        with open(path) as f:
            for line in f:
                kind, _, rest = line.partition(" ")
                if kind == "ru_maxrss_kb":
                    rss.append((path, int(rest)))
                elif kind == "dropped":
                    dropped += int(rest)
                elif kind == "sample":
                    raw.append([int(x, 16) for x in rest.split()])
                elif kind == "map":
                    map_lines.append(rest)
        space = AddressSpace(map_lines)
        # Frame 0 is the interrupted instruction; the rest are return
        # addresses, which point after their call: step back into it.
        wanted = collections.defaultdict(set)
        located = []
        for pcs in raw:
            frames = [space.locate(pc if i == 0 else pc - 1) for i, pc in enumerate(pcs)]
            located.append(frames)
            for frame in frames:
                if frame:
                    wanted[frame[0]].add(frame[1])
        names = {}
        for obj, addresses in wanted.items():
            addresses = sorted(addresses)
            try:
                for addr, frame_names in symbolize(obj, addresses).items():
                    names[(obj, addr)] = frame_names
            except (OSError, subprocess.CalledProcessError) as err:
                print(f"report: cannot symbolize {obj}: {err}", file=sys.stderr)
        for frames in located:
            sample = []
            for frame in frames:
                # A frame without a symbol is named after its file.
                unknown = f"?? ({os.path.basename(frame[0]) if frame else 'no file'})"
                sample.extend(names.get(frame) or [(unknown, "??")])
            samples.append(sample)
    return rss, dropped, samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="sample files written by sampler.so")
    parser.add_argument("--top", type=int, default=40, help="functions to list")
    parser.add_argument("--match", default="", help="list only functions containing this text")
    parser.add_argument(
        "--lines", action="store_true", help="self shares by innermost function @file:line"
    )
    args = parser.parse_args()

    rss, dropped, samples = read(args.files)
    for path, kb in rss:
        print(f"{path}: ru_maxrss {kb / 1024:.1f} MB")
    if dropped:
        print(f"{dropped} samples dropped (buffer full)")
    if not samples:
        print("no samples")
        return
    print(f"{len(samples)} samples")
    if args.lines:
        lines = collections.Counter(f"{s[0][0]} @{s[0][1]}" for s in samples)
        print(f"{'self':>6}  function @file:line")
        listed = [(n, c) for n, c in lines.most_common() if args.match in n]
        for name, count in listed[: args.top]:
            print(f"{count / len(samples):6.1%}  {name[:200]}")
        return
    inclusive, own = collections.Counter(), collections.Counter()
    for sample in samples:
        names = [name for name, _ in sample]
        inclusive.update(set(names))
        own[names[0]] += 1
    print(f"{'incl':>6} {'self':>6}  function")
    listed = [(n, c) for n, c in inclusive.most_common() if args.match in n]
    for name, count in listed[: args.top]:
        print(f"{count / len(samples):6.1%} {own[name] / len(samples):6.1%}  {name[:160]}")


if __name__ == "__main__":
    main()
