#!/usr/bin/env python3
"""List the src/ functions that no linked program keeps.

    python3 .github/unreached_functions.py --objects BUILD/src BUILD [BUILD...]

Build every target with `-O0 -ffunction-sections` and link with
`-Wl,--gc-sections` first, so that each function sits in its own section
and the linker drops every one that no program reaches. The script then
takes each function that an object under --objects defines (nm type T) and
looks for its demangled name among the symbols of the executables found
under the BUILD directories (tests, benches, examples, perfbench). It prints
each function that no executable keeps, with the object that defines it,
and exits 1 if there is any.

Constructors, destructors and assignment operators are skipped: the
compiler needs them even where it elides every call.
"""

import argparse
import os
import subprocess
import sys


def nm(path):
    """(type, demangled name) of every symbol `path` defines."""
    out = subprocess.run(["nm", "--defined-only", "--demangle", path],
                         capture_output=True, text=True, check=True).stdout
    for line in out.splitlines():
        fields = line.split(" ", 2)
        if len(fields) == 3:
            yield fields[1], fields[2]


def scope_parts(name):
    """`a::b<c::d>::e(int)` -> ["a", "b<c::d>", "e"]: the qualified name
    before its parameter list, split at the `::` that no <> encloses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(name):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif depth == 0 and ch == "(":
            break
        elif depth == 0 and name.startswith("::", i):
            parts.append(name[start:i])
            start = i + 2
    else:
        i = len(name)
    parts.append(name[start:i])
    return parts


def is_special_member(name):
    """A constructor, destructor or assignment operator."""
    if "::~" in name or "::operator=(" in name:
        return True
    if "operator" in name:
        return False
    parts = scope_parts(name)
    return len(parts) >= 2 and parts[-1] == parts[-2].split("<", 1)[0]


def executables(build_dirs):
    for top in build_dirs:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [d for d in dirnames if d != "CMakeFiles"]
            for name in filenames:
                path = os.path.join(dirpath, name)
                if not os.access(path, os.X_OK) or os.path.islink(path):
                    continue
                with open(path, "rb") as f:
                    if f.read(4) == b"\x7fELF":
                        yield path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--objects", required=True,
                        help="directory holding the src/ object files")
    parser.add_argument("build_dirs", nargs="+",
                        help="directories holding the linked executables")
    args = parser.parse_args()

    kept = set()
    programs = list(executables(args.build_dirs))
    for path in programs:
        kept.update(name for _, name in nm(path))
    if not programs:
        sys.exit("no executables found under " + " ".join(args.build_dirs))

    unreached = []
    objects = 0
    for dirpath, _, filenames in os.walk(args.objects):
        for name in sorted(filenames):
            if not name.endswith(".o"):
                continue
            objects += 1
            path = os.path.join(dirpath, name)
            for kind, symbol in nm(path):
                if kind == "T" and symbol not in kept and not is_special_member(symbol):
                    unreached.append((symbol, os.path.relpath(path, args.objects)))

    print(f"{objects} src/ objects, {len(programs)} executables")
    for symbol, obj in sorted(unreached):
        print(f"unreached: {symbol}  [{obj}]")
    print(f"{len(unreached)} unreached functions")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
