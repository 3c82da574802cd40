#!/usr/bin/env python3
"""Link-time symbol audit: the post-build backstop behind rapid_lint's
no-rand / no-wallclock source checks.

Source linting sees what is written; the linker sees what is actually
reachable. This tool runs nm over every object file the build
produced (i.e. everything that links into every bench/test/example
binary, including through static archives) and over the binaries
themselves, and fails when a forbidden symbol is undefined -- meaning
some code path actually references wall-clock or libc randomness:

    rand srand random srandom drand48 lrand48 mrand48
    clock_gettime gettimeofday time timespec_get

Only the objects built from src/common/parallel.* and
src/common/sweep.* may reference wall time (the pool's idle waits and
the sweepMain timing harness, whose readings go to the bench-report
side channel, never to golden-diffed stdout). A forbidden symbol in a
binary's dynamic import table is accepted only when one of those
allowed objects is what references it; third-party test frameworks
are prebuilt archives, not our objects, and are outside the
discipline.

A second pass finds dead exports: external functions of librapid_*
objects that no relocation (readelf -rW) in a library, bench, example
or test object names. The assembler resolves in-section calls without
a relocation and optimised builds inline, so the defining object's
branch targets (objdump -d) and inline sites (DWARF: build with -g,
as RelWithDebInfo and Debug do) count too. Names compare demangled,
so C1/C2 and D1/D2 variants match. Test-only exports are reported,
not failed; WAIVED lists the exports whose only users the build tree
cannot see.

Modes
  --build-dir BUILD     audit every object and binary under BUILD
  --self-test --cxx CXX compile the planted fixtures under
                        tools/lint_fixtures/audit/ and prove the audit
                        fails on the wall-clock and dead-export plants
                        and passes the clean ones

Exit status: 0 clean, 1 violations, 2 usage or self-test failure.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FORBIDDEN = frozenset({
    "rand", "srand", "random", "srandom",
    "drand48", "lrand48", "mrand48",
    "clock_gettime", "gettimeofday", "time", "timespec_get",
})

#: Sources whose objects may legitimately reference wall time.
ALLOWED_SOURCES = ("src/common/parallel.", "src/common/sweep.")

#: Directories whose executables get the binary-level scan.
BINARY_DIRS = ("tests", "bench", "examples")

#: Dead-export waivers: library functions whose only users are outside
#: the build tree, keyed by demangled name.
WAIVED = {
    "rapid::ThreadPool::hardwareThreads()":
        "perfbench sizes its pool with it (separate CMake project)",
    "rapid::DesEngine::totalExecuted() const":
        "perfbench counts DES events with it (separate CMake project)",
    "rapid::FaultStats::accountingConsistent() const":
        "perfbench checks fault ledgers with it (separate CMake "
        "project)",
}

#: Build-tree top directory of each object role.
ROLE_DIRS = {"src": "library", "bench": "bench", "examples": "example",
             "tests": "test"}

#: GCC clone suffixes: a call to foo.isra.0 is a use of foo.
CLONE_SUFFIX = re.compile(r"\.(isra|constprop|part|cold)(\.\d+)?")
DIE_HEADER = re.compile(r"<([0-9a-f]+)>: Abbrev Number: \d+ \((\w+)\)")


def undefined_symbols(nm, path):
    """Undefined symbol names of an object or binary, version suffixes
    (sym@GLIBC_x) stripped. Returns None when nm cannot read it."""
    try:
        proc = subprocess.run(
            [nm, "--undefined-only", "--format=posix", str(path)],
            capture_output=True, text=True)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    symbols = set()
    for line in proc.stdout.splitlines():
        fields = line.split()
        if fields:
            symbols.add(fields[0].split("@")[0])
    return symbols


def source_of_object(rel_parts):
    """Map an object's build-tree path to its source path.

    CMake lays objects out as
        <srcdir>/CMakeFiles/<target>.dir/<source-within-srcdir>.o
    and mirrors the source directory tree inside the build tree, so
    dropping the CMakeFiles/<target>.dir pair reconstructs the source
    path. Returns None for layouts this cannot interpret.
    """
    parts = list(rel_parts)
    try:
        idx = parts.index("CMakeFiles")
    except ValueError:
        return None
    if idx + 2 >= len(parts) + 1:
        return None
    source_parts = parts[:idx] + parts[idx + 2:]
    if not source_parts:
        return None
    # "__/" components mean the source sat outside the target's dir.
    source_parts = [p if p != "__" else ".." for p in source_parts]
    source = "/".join(source_parts)
    return source[:-2] if source.endswith(".o") else source


def tool_lines(*cmd):
    """stdout lines of a binutils command."""
    return subprocess.run([str(c) for c in cmd], capture_output=True,
                          text=True).stdout.splitlines()


def relocated_symbols(path):
    """Symbols named by an object's relocations."""
    return {fields[4]
            for fields in map(str.split, tool_lines("readelf", "-rW", path))
            if len(fields) >= 5 and fields[2].startswith("R_")}


def local_references(path):
    """Names an object uses without a relocation: branch and address
    targets the assembler resolved in place (objdump -d), and functions
    inlined at one of its call sites (DWARF)."""
    names = {CLONE_SUFFIX.sub("", target)
             for line in tool_lines("objdump", "-d", "--no-show-raw-insn",
                                    path) if line.startswith(" ")
             for target in re.findall(r"<([^<>+]+)>", line)}
    dies, die = {}, {}
    for line in tool_lines("readelf", "--debug-dump=info", "--wide",
                           path):
        if "Abbrev Number" in line:
            m = DIE_HEADER.search(line)
            die = {"tag": m.group(2)} if m else {}
            if m:
                dies[m.group(1)] = die
        elif "DW_AT_linkage_name" in line:
            die["name"] = line.rsplit(": ", 1)[1].strip()
        elif ("DW_AT_specification" in line or
              "DW_AT_abstract_origin" in line):
            die["link"] = line.rsplit("<0x", 1)[1].rstrip(">")
    for die in list(dies.values()):
        if die["tag"] == "DW_TAG_inlined_subroutine":
            for _ in range(4):  # inline instance -> abstract -> decl
                die = dies.get(die.get("link"), {})
                if "name" in die:
                    names.add(die["name"])
                    break
    return names


def demangle(names):
    """Map each mangled name to its demangled form."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def dead_exports(nm, library, users):
    """Classify the external functions defined in @p library objects by
    who uses them. @p users maps a role ("library", "bench", "example",
    "test") to the objects whose relocations count, library objects
    included. Returns (dead, test_only): sorted (demangled name,
    defining object) pairs."""
    exports = {}  # mangled -> defining object
    for obj in library:
        for line in tool_lines(nm, "--defined-only", "--format=posix",
                               obj):
            fields = line.split()
            if len(fields) >= 2 and fields[1] == "T":
                exports.setdefault(fields[0], obj)
    refs = {}  # mangled -> roles
    for role, objs in users.items():
        for obj in objs:
            for name in relocated_symbols(obj):
                refs.setdefault(name, set()).add(role)
    names = demangle(set(exports) | set(refs))
    roles_of = {}  # demangled, so C1/C2 and D1/D2 merge
    for mangled, roles in refs.items():
        roles_of.setdefault(names[mangled], set()).update(roles)
    # Uses no relocation shows: look inside the defining object of
    # every export that no non-test object names.
    suspects = {obj for mangled, obj in exports.items()
                if roles_of.get(names[mangled], set()) <= {"test"}}
    for obj in sorted(suspects):
        for name in demangle(local_references(obj)).values():
            roles_of.setdefault(name, set()).add("library")
    dead, test_only = set(), set()
    for mangled, obj in exports.items():
        roles = roles_of.get(names[mangled], set())
        if names[mangled] in WAIVED:
            continue
        if not roles:
            dead.add((names[mangled], obj))
        elif roles == {"test"}:
            test_only.add((names[mangled], obj))
    return sorted(dead), sorted(test_only)


def audit_dead_exports(build, nm):
    """The dead-export pass over a build tree: (findings, test-only
    records)."""
    users = {}
    for obj in sorted(build.rglob("CMakeFiles/**/*.o")):
        rel = obj.relative_to(build)
        role = ROLE_DIRS.get(rel.parts[0])
        if role == "library" and not any(
                p.startswith("rapid_") and p.endswith(".dir")
                for p in rel.parts):
            continue  # not a librapid_* archive member
        if role:
            users.setdefault(role, []).append(obj)
    dead, test_only = dead_exports(nm, users.get("library", []), users)

    def source(obj):
        return source_of_object(obj.relative_to(build).parts)

    findings = [{
        "kind": "dead-export", "path": obj.relative_to(build).as_posix(),
        "source": source(obj), "symbol": name,
        "message": "%s (from %s) is exported but no library, bench, "
                   "example or test object uses it" % (name, source(obj)),
    } for name, obj in dead]
    return findings, [{"symbol": name, "source": source(obj)}
                      for name, obj in test_only]


def audit_build(build_dir, nm, json_path=None):
    build = Path(build_dir)
    if not build.is_dir():
        print("audit_symbols: no build directory at %s" % build)
        return 2

    findings = []
    allowed_refs = set()
    objects = sorted(build.rglob("CMakeFiles/**/*.o"))
    scanned = 0
    for obj in objects:
        rel = obj.relative_to(build)
        source = source_of_object(rel.parts)
        symbols = undefined_symbols(nm, obj)
        if symbols is None:
            continue
        scanned += 1
        hit = sorted(symbols & FORBIDDEN)
        if not hit:
            continue
        if source is not None and source.startswith(ALLOWED_SOURCES):
            allowed_refs.update(hit)
            continue
        for sym in hit:
            findings.append({
                "kind": "object", "path": rel.as_posix(),
                "source": source, "symbol": sym,
                "message": "object %s (from %s) references forbidden "
                           "symbol '%s'" % (rel.as_posix(), source, sym),
            })

    binaries_scanned = 0
    for top in BINARY_DIRS:
        base = build / top
        if not base.is_dir():
            continue
        for path in sorted(base.iterdir()):
            if not path.is_file() or not os.access(path, os.X_OK):
                continue
            if path.suffix in (".cmake", ".txt", ".o"):
                continue
            symbols = undefined_symbols(nm, path)
            if symbols is None:
                continue
            binaries_scanned += 1
            for sym in sorted(symbols & FORBIDDEN):
                if sym in allowed_refs:
                    continue  # brought in by parallel./sweep. objects
                findings.append({
                    "kind": "binary",
                    "path": path.relative_to(build).as_posix(),
                    "source": None, "symbol": sym,
                    "message": "binary %s imports forbidden symbol "
                               "'%s' from outside the allowed "
                               "src/common/parallel./sweep. objects"
                               % (path.relative_to(build).as_posix(),
                                  sym),
                })

    dead, test_only = audit_dead_exports(build, nm)
    findings += dead

    if json_path:
        Path(json_path).write_text(json.dumps({
            "tool": "audit_symbols",
            "schema_version": 1,
            "build_dir": str(build),
            "objects_scanned": scanned,
            "binaries_scanned": binaries_scanned,
            "forbidden": sorted(FORBIDDEN),
            "allowed_wallclock_refs": sorted(allowed_refs),
            "waived_exports": WAIVED,
            "test_only_exports": test_only,
            "violations": len(findings),
            "findings": findings,
        }, indent=2) + "\n")

    for finding in findings:
        print("audit_symbols: " + finding["message"])
    if test_only:
        print("audit_symbols: %d export(s) referenced only from tests "
              "(reported, not failing)" % len(test_only))
    if findings:
        print("audit_symbols: %d violation(s) (%d objects, %d binaries "
              "scanned)" % (len(findings), scanned, binaries_scanned))
        return 1
    print("audit_symbols: clean (%d objects, %d binaries scanned)"
          % (scanned, binaries_scanned))
    return 0


# ---------------------------------------------------------------------------
# Self-test: compile the planted fixtures and prove detection.
# ---------------------------------------------------------------------------

def compile_fixture(cxx, source, out_dir, flags=()):
    obj = Path(out_dir) / (Path(source).stem + ".o")
    proc = subprocess.run(
        [cxx, *flags, "-c", str(source), "-o", str(obj)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        print("audit_symbols self-test: cannot compile %s:\n%s"
              % (source, proc.stderr))
        return None
    return obj


def self_test(cxx, nm, root):
    fixtures = Path(root) / "tools" / "lint_fixtures" / "audit"
    planted = fixtures / "planted_wallclock.cc"
    clean = fixtures / "clean_virtual.cc"
    dead_lib = fixtures / "planted_dead_export.cc"
    dead_user = fixtures / "dead_export_user.cc"
    for path in (planted, clean, dead_lib, dead_user):
        if not path.is_file():
            print("audit_symbols self-test: missing fixture %s" % path)
            return 2

    failures = 0
    with tempfile.TemporaryDirectory(prefix="audit_selftest") as tmp:
        planted_obj = compile_fixture(cxx, planted, tmp)
        clean_obj = compile_fixture(cxx, clean, tmp)
        # Flags under which an in-section call carries no relocation
        # and a small callee is inlined away, as in optimised builds.
        lib_obj = compile_fixture(
            cxx, dead_lib, tmp,
            ("-O2", "-g", "-fPIC", "-fno-semantic-interposition"))
        user_obj = compile_fixture(cxx, dead_user, tmp)
        if None in (planted_obj, clean_obj, lib_obj, user_obj):
            return 2

        symbols = undefined_symbols(nm, planted_obj)
        hit = sorted((symbols or set()) & FORBIDDEN)
        if "clock_gettime" in hit:
            print("self-test ok: planted_wallclock.o references %s"
                  % ", ".join(hit))
        else:
            print("SELF-TEST FAIL: planted clock_gettime reference not "
                  "detected (undefined: %s)" % sorted(symbols or ()))
            failures += 1

        symbols = undefined_symbols(nm, clean_obj)
        hit = sorted((symbols or set()) & FORBIDDEN)
        if hit:
            print("SELF-TEST FAIL: clean fixture references %s"
                  % ", ".join(hit))
            failures += 1
        else:
            print("self-test ok: clean_virtual.o references no "
                  "forbidden symbol")

        dead, test_only = dead_exports(
            nm, [lib_obj], {"library": [lib_obj], "test": [user_obj]})
        got = ([n for n, _ in dead], [n for n, _ in test_only])
        want = (["rapid_fixture::plantedDeadExport(int)"],
                ["rapid_fixture::Widget::Widget(int)",
                 "rapid_fixture::Widget::~Widget()",
                 "rapid_fixture::testOnlyExport(int)"])
        if got == want:
            print("self-test ok: planted_dead_export.o has exactly the "
                  "planted dead export")
        else:
            print("SELF-TEST FAIL: dead/test-only exports %s, want %s"
                  % (got, want))
            failures += 1

    if failures:
        return 2
    print("audit_symbols self-test passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", help="CMake build tree to audit")
    parser.add_argument("--json", metavar="PATH",
                        help="write machine-readable results to PATH")
    parser.add_argument("--nm", default="nm", help="nm binary to use")
    parser.add_argument("--self-test", action="store_true",
                        help="prove the audit on the planted fixtures")
    parser.add_argument("--cxx", default="c++",
                        help="C++ compiler for --self-test fixtures")
    parser.add_argument("--root", default=".",
                        help="repository root (for --self-test fixtures)")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(args.cxx, args.nm, args.root)
    if not args.build_dir:
        parser.print_usage()
        print("audit_symbols: --build-dir or --self-test is required")
        return 2
    return audit_build(args.build_dir, args.nm, args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
