#!/usr/bin/env python3
"""Counts the settable options of the simulator's config structs.

    tools/config_options.py [ROOT]        # ROOT defaults to the repo root

An option is a data member of a config struct under ROOT/src: a struct
named `Config`, `*Config`, `FaultPlan` or `ScheduleChange`. Members of
structs nested inside one are not counted (they are counted as the one
member that holds them). Prints one line per struct (count, header, name,
members) and the total last. Constants (`static`, `constexpr`) and member
functions are not options.
"""
import pathlib
import re
import sys

HEAD = re.compile(r"^\s*struct (\w*Config|FaultPlan|ScheduleChange)\s*\{")
MEMBER = re.compile(r"^\s+[A-Za-z_][\w:<>, ]*[\s&*]+([a-z_]\w*)\s*(=|\{|;)")
NOT_MEMBER = re.compile(r"^\s*(static|using|return|struct|enum|constexpr)\b")


def members(lines, i):
    """Members of the struct whose body starts at lines[i]; returns (names, end)."""
    depth, names = 1, []
    while i < len(lines) and depth > 0:
        line = re.sub(r"//.*", "", lines[i])
        m = MEMBER.match(line)
        if (depth == 1 and m and not NOT_MEMBER.match(line)
                and "(" not in line.split("=")[0]
                and not line.rstrip().endswith(") {")):
            names.append(m.group(1))
        depth += line.count("{") - line.count("}")
        i += 1
    return names, i


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    total = 0
    for path in sorted(root.glob("src/**/*.hpp")):
        lines = path.read_text().splitlines()
        i = 0
        while i < len(lines):
            head = HEAD.match(lines[i])
            if not head:
                i += 1
                continue
            names, i = members(lines, i + 1)
            total += len(names)
            print(f"{len(names):3d} {path.relative_to(root)} {head.group(1)}: "
                  + " ".join(names))
    print(f"total {total}")


if __name__ == "__main__":
    main()
