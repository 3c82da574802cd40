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
objects that no relocation (objdump -r) in a library, bench, example
or test object names. The assembler resolves in-section calls without
a relocation and optimised builds inline, so the defining object's
branch targets (objdump -d) and inline sites (DWARF: build with -g,
as RelWithDebInfo and Debug do) count too. Names compare demangled,
so C1/C2 and D1/D2 variants match. Test-only exports are reported,
not failed; WAIVED lists the exports whose only users the build tree
cannot see.

An incremental build keeps the object of a deleted source. Nothing
links it, so both passes skip every object whose source (reconstructed
from its build-tree path) exists neither under --root nor, for a
generated source, in the build tree, and every header self-containment
TU whose header is gone from src/ (its generated source outlives it).

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
from concurrent.futures import ThreadPoolExecutor
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
#: The lines of a DWARF info dump that inlined_functions() reads, and
#: the multi-file "File:" headers.
DWARF_LINES = ("^File: |Abbrev Number|DW_AT_linkage_name|"
               "DW_AT_specification|DW_AT_abstract_origin")
#: readelf -SW: the section a relocation section applies to.
RELA_TARGET = re.compile(r"\] \.rela(\S+)\s+RELA\s")
#: objdump's header before each file of a multi-file run.
OBJDUMP_FILE = r"^(\S+):\s+file format \S+\n"
#: objdump -r: a relocation's symbol, without its addend.
RELOC_SYMBOL = re.compile(r"^[0-9a-f]+ R_\S+\s+([^\s+-]+)", re.M)

#: Concurrent binutils processes per pass. Each pass splits its files
#: into at most this many multi-file invocations, so the process count
#: stays fixed however many objects the build has.
JOBS = 4


def run_batched(cmd, paths, pipe=None):
    """Run @p cmd over @p paths as at most JOBS multi-file invocations,
    concurrently; @p pipe, if given, filters each one's stdout. Returns
    (batch, stdout, stderr) per invocation."""
    paths = [str(p) for p in paths]
    count = min(JOBS, len(paths))

    def run(batch):
        if pipe is None:
            proc = subprocess.run([*cmd, *batch], capture_output=True,
                                  text=True)
            return batch, proc.stdout, proc.stderr
        first = subprocess.Popen([*cmd, *batch], stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
        out = subprocess.run(pipe, stdin=first.stdout, capture_output=True,
                             text=True).stdout
        first.stdout.close()
        first.wait()
        return batch, out, ""

    with ThreadPoolExecutor(max(count, 1)) as pool:
        return list(pool.map(run, [paths[i::count] for i in range(count)]))


def per_file(batch, out, header):
    """Split multi-file binutils output at the lines @p header matches
    (group 1 names the file). A one-file batch may print no header."""
    parts = re.split(header, out, flags=re.M)
    if len(parts) == 1:
        return {batch[0]: out} if len(batch) == 1 else {}
    return dict(zip(parts[1::2], parts[2::2]))


def undefined_symbols(nm, paths):
    """Undefined symbol names of each object or binary in @p paths,
    version suffixes (sym@GLIBC_x) stripped: a dict from path to its
    set, or to None when nm cannot read the file."""
    symbols = {str(p): set() for p in paths}
    try:
        runs = run_batched([nm, "-A", "--undefined-only", "--format=posix"],
                           paths)
    except OSError:
        return dict.fromkeys(symbols)
    for batch, out, err in runs:
        for line in out.splitlines():
            path, _, rest = line.partition(": ")
            fields = rest.split()
            if fields:
                symbols[path].add(fields[0].split("@")[0])
        # nm names each file it cannot read on stderr, and carries on.
        for path in batch:
            if any(path in line and not line.endswith(": no symbols")
                   for line in err.splitlines()):
                symbols[path] = None
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


def tu_header(generated):
    """The src/-relative header a generated header self-containment TU
    (tools/header_tus/*.cc) includes, or None for any other source."""
    if generated.parent.name != "header_tus":
        return None
    match = re.search(r'^#include "([^"]+)"', generated.read_text(), re.M)
    return match.group(1) if match else None


def live_objects(build, root):
    """The objects under @p build, sorted, less those whose source is
    gone: neither @p root nor @p build (generated sources) holds it,
    or it is a header TU whose header is gone from @p root's src/."""
    objects = []
    for obj in sorted(build.rglob("CMakeFiles/**/*.o")):
        source = source_of_object(obj.relative_to(build).parts)
        if source is None or (root / source).exists():
            objects.append(obj)
            continue
        generated = build / source
        if not generated.exists():
            continue
        header = tu_header(generated)
        if header is None or (root / "src" / header).exists():
            objects.append(obj)
    return objects


def relocated_symbols(paths):
    """Symbols named by each object's relocations: a dict from path to
    set. DWARF sections are left out; their relocations name section
    symbols only, never a function, and they are most of the output."""
    targets = {}
    for batch, out, _ in run_batched(["readelf", "-SW"], paths):
        for path, text in per_file(batch, out, r"^File: (.+)\n").items():
            targets[path] = {name for name in RELA_TARGET.findall(text)
                             if not name.startswith(".debug")}
    symbols = {str(p): set() for p in paths}
    sections = sorted(set().union(*targets.values()))
    if not sections:
        return symbols
    select = [arg for name in sections for arg in ("-j", name)]
    for batch, out, _ in run_batched(["objdump", "-r", *select], paths):
        for path, text in per_file(batch, out, OBJDUMP_FILE).items():
            symbols[path] = set(RELOC_SYMBOL.findall(text))
    return symbols


def local_references(paths):
    """Names each object uses without a relocation: branch and address
    targets the assembler resolved in place (objdump -d), and functions
    inlined at one of its call sites (DWARF). A dict from path to
    set."""
    names = {str(p): set() for p in paths}
    for batch, out, _ in run_batched(
            ["objdump", "-d", "--no-show-raw-insn"], paths):
        for path, text in per_file(batch, out, OBJDUMP_FILE).items():
            names[path] = {CLONE_SUFFIX.sub("", target)
                           for line in text.splitlines()
                           if line.startswith(" ")
                           for target in re.findall(r"<([^<>+]+)>", line)}
    # The DIE headers and the three attributes read below are a small
    # share of the dump; grep drops the rest before Python reads it.
    for batch, out, _ in run_batched(
            ["readelf", "--debug-dump=info", "--wide"], paths,
            pipe=["grep", "-E", DWARF_LINES]):
        for path, text in per_file(batch, out, r"^File: (.+)\n").items():
            names[path] |= inlined_functions(text)
    return names


def inlined_functions(text):
    """Linkage names of the functions a DWARF info dump shows inlined."""
    names = set()
    dies, die = {}, {}
    for line in text.splitlines():
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
    defined = {}  # path -> [(symbol, type)] in nm's order
    for _, out, _ in run_batched([nm, "-A", "--defined-only",
                                  "--format=posix"], library):
        for line in out.splitlines():
            path, _, rest = line.partition(": ")
            fields = rest.split()
            if len(fields) >= 2:
                defined.setdefault(path, []).append(fields[:2])
    exports = {}  # mangled -> defining object
    for obj in library:
        for symbol, kind in defined.get(str(obj), []):
            if kind == "T":
                exports.setdefault(symbol, obj)
    refs = {}  # mangled -> roles
    for role, objs in users.items():
        for names in relocated_symbols(objs).values():
            for name in names:
                refs.setdefault(name, set()).add(role)
    names = demangle(set(exports) | set(refs))
    roles_of = {}  # demangled, so C1/C2 and D1/D2 merge
    for mangled, roles in refs.items():
        roles_of.setdefault(names[mangled], set()).update(roles)
    # Uses no relocation shows: look inside the defining object of
    # every export that no non-test object names.
    suspects = {obj for mangled, obj in exports.items()
                if roles_of.get(names[mangled], set()) <= {"test"}}
    if suspects:
        local = set().union(*local_references(sorted(suspects)).values())
        for name in demangle(local).values():
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


def audit_dead_exports(build, nm, root):
    """The dead-export pass over a build tree: (findings, test-only
    records)."""
    users = {}
    for obj in live_objects(build, root):
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


def audit_build(build_dir, nm, root, json_path=None):
    build, root = Path(build_dir), Path(root)
    if not build.is_dir():
        print("audit_symbols: no build directory at %s" % build)
        return 2
    if not (root / "src").is_dir():
        # Every library object would read as stale and be skipped.
        print("audit_symbols: no source tree at %s" % (root / "src"))
        return 2

    findings = []
    allowed_refs = set()
    objects = live_objects(build, root)
    object_symbols = undefined_symbols(nm, objects)
    scanned = 0
    for obj in objects:
        rel = obj.relative_to(build)
        source = source_of_object(rel.parts)
        symbols = object_symbols[str(obj)]
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

    binaries = []
    for top in BINARY_DIRS:
        base = build / top
        if not base.is_dir():
            continue
        for path in sorted(base.iterdir()):
            if not path.is_file() or not os.access(path, os.X_OK):
                continue
            if path.suffix in (".cmake", ".txt", ".o"):
                continue
            binaries.append(path)
    binary_symbols = undefined_symbols(nm, binaries)
    binaries_scanned = 0
    for path in binaries:
        symbols = binary_symbols[str(path)]
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
                           % (path.relative_to(build).as_posix(), sym),
            })

    dead, test_only = audit_dead_exports(build, nm, root)
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
    stale = fixtures / "stale_object.cc"
    for path in (planted, clean, dead_lib, dead_user, stale):
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

        symbols = undefined_symbols(nm, [planted_obj])[str(planted_obj)]
        hit = sorted((symbols or set()) & FORBIDDEN)
        if "clock_gettime" in hit:
            print("self-test ok: planted_wallclock.o references %s"
                  % ", ".join(hit))
        else:
            print("SELF-TEST FAIL: planted clock_gettime reference not "
                  "detected (undefined: %s)" % sorted(symbols or ()))
            failures += 1

        symbols = undefined_symbols(nm, [clean_obj])[str(clean_obj)]
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

        # A library object left behind in a build tree whose source
        # tree no longer has its source: skipped while the source is
        # gone, audited (a dead export) once it is back.
        tree = Path(tmp) / "tree"
        obj_dir = (tree / "build" / "src" / "fixture" / "CMakeFiles" /
                   "rapid_fixture.dir")
        obj_dir.mkdir(parents=True)
        (tree / "src" / "fixture").mkdir(parents=True)
        stale_obj = compile_fixture(cxx, stale, obj_dir, ("-O2",))
        if stale_obj is None:
            return 2
        stale_obj.rename(obj_dir / "stale_object.cc.o")
        gone = audit_dead_exports(tree / "build", nm, tree)
        (tree / "src" / "fixture" / "stale_object.cc").write_text("")
        back = audit_dead_exports(tree / "build", nm, tree)
        if gone == ([], []) and [f["symbol"] for f in back[0]] == [
                "rapid_fixture::staleExport(int)"]:
            print("self-test ok: stale_object.cc.o is skipped while its "
                  "source is gone")
        else:
            print("SELF-TEST FAIL: stale object audited as %s without "
                  "its source and %s with it" % (gone, back))
            failures += 1

        # A header self-containment TU whose generated source is still
        # in the build tree: skipped while its header is gone from
        # src/, scanned once the header is back.
        tu_dir = tree / "build" / "tools" / "header_tus"
        tu_dir.mkdir(parents=True)
        (tu_dir / "fixture__gone.cc").write_text(
            '#include "fixture/gone.hh"\n#include "fixture/gone.hh"\n')
        tu_obj_dir = (tree / "build" / "tools" / "CMakeFiles" /
                      "header_selfcontained.dir" / "header_tus")
        tu_obj_dir.mkdir(parents=True)
        tu_obj = tu_obj_dir / "fixture__gone.cc.o"
        tu_obj.write_bytes(clean_obj.read_bytes())
        gone = tu_obj in live_objects(tree / "build", tree)
        (tree / "src" / "fixture" / "gone.hh").write_text("")
        back = tu_obj in live_objects(tree / "build", tree)
        if not gone and back:
            print("self-test ok: header_tus/fixture__gone.cc.o is skipped "
                  "while its header is gone")
        else:
            print("SELF-TEST FAIL: header TU object live=%s without its "
                  "header and live=%s with it" % (gone, back))
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
    parser.add_argument("--root",
                        default=str(Path(__file__).resolve().parents[1]),
                        help="repository root: the sources stale objects "
                             "are checked against, and the --self-test "
                             "fixtures (default: this script's "
                             "repository)")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(args.cxx, args.nm, args.root)
    if not args.build_dir:
        parser.print_usage()
        print("audit_symbols: --build-dir or --self-test is required")
        return 2
    return audit_build(args.build_dir, args.nm, args.root, args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
