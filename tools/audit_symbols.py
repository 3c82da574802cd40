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

A second pass decides which external functions of librapid_* objects
are live, by reachability. Its roots are what bench and example
objects reference, what .init_array runs, and the WAIVED names; a
function or data symbol is live when a live one references it: by a
relocation (objdump -r), by a branch the assembler resolved in place
(objdump -d, for the objects that need it), or by an inline site
(DWARF: build with -g, as RelWithDebInfo and Debug do), attributed to
the symbol that contains it. A clone (.cold, .part.N, .isra.N,
.constprop.N) is its function, so its references never count as a
use of that function. Names compare demangled, so C1/C2 and D1/D2
variants match. An export no root reaches fails the run, as
test-only when a test object reaches it and as dead otherwise; so
does a WAIVED entry that names no export, or one live without it.

An incremental build keeps the object of a deleted source. Nothing
links it, so both passes skip every object whose source (reconstructed
from its build-tree path) exists neither under --root nor, for a
generated source, in the build tree, and every header self-containment
TU whose header is gone from src/ (its generated source outlives it).

Modes
  --build-dir BUILD     audit every object and binary under BUILD
  --self-test --cxx CXX compile the planted fixtures under
                        tools/lint_fixtures/audit/ and prove the audit
                        fails on each planted fault (wall clock, dead
                        and test-only exports, stale waivers) and
                        passes the clean and live ones

Exit status: 0 clean, 1 violations, 2 usage or self-test failure.
"""

import argparse
import bisect
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

#: Waivers: library functions whose users the build tree does not
#: link, keyed by demangled name, each with the user it names. They are
#: roots of the reachability walk; one that names no export, or an
#: export live without it, is a finding.
CNN_EXPERIMENT = ("SmallCnn, the convnet parity experiment test_cnn "
                  "drives and EXPERIMENTS.md cites")
WAIVED = {
    "rapid::DesEngine::totalExecuted() const":
        "perfbench counts DES events with it (separate CMake project)",
    "rapid::FaultStats::accountingConsistent() const":
        "perfbench checks fault ledgers with it (separate CMake "
        "project)",
    "rapid::ChipSim::runBatch(std::vector<rapid::LayerProgram, "
    "std::allocator<rapid::LayerProgram> > const&, long) const":
        "perfbench chip_model runs its program batches through it "
        "(separate CMake project)",
    "rapid::SmallCnn::SmallCnn(rapid::CnnConfig const&)": CNN_EXPERIMENT,
    "rapid::SmallCnn::train(rapid::ImageDataset const&, int, long)":
        CNN_EXPERIMENT,
    "rapid::SmallCnn::evaluate(rapid::ImageDataset const&)":
        CNN_EXPERIMENT,
    "rapid::makeStripes(rapid::Rng&, long, double)": CNN_EXPERIMENT,
}

#: Build-tree top directory of each object role.
ROLE_DIRS = {"src": "library", "bench": "bench", "examples": "example",
             "tests": "test"}

#: GCC clone suffixes: a call to foo.isra.0 is a use of foo, and what
#: foo.cold references, foo references.
CLONE_SUFFIX = re.compile(r"\.(isra|constprop|part|cold|localalias)(\.\d+)?")
#: objdump -dl --inlines: the lines that name a file or a function.
#: A "name():" line names the innermost function at the next address,
#: printed only when it differs from the last one printed; an "inlined
#: by" line names a caller it is inlined into, and repeats at every
#: line change, so awk keeps its first copy in each function. A local
#: function has no mangled name.
INLINE_LINES = ("/file format|^[0-9a-f]+ </ { delete seen; print; next } "
                "/\\(\\):$/ { print; next } "
                "/^inlined by / { if (!seen[$0]++) print }")
NAME_LINE = re.compile(r"^(\S+)\(\):$", re.M)
INLINED_BY = re.compile(r"\((_Z[^\s()]+)\)$", re.M)
#: The lines of a DWARF info dump that inlined_functions() reads, and
#: the multi-file "File:" headers.
DWARF_LINES = ("^File: |Abbrev Number|DW_AT_linkage_name|"
               "DW_AT_specification|DW_AT_inline")
#: A subprogram DIE's linkage name, and one that DW_AT_inline marks
#: inlined, with its linkage name or its declaration's offset.
DECLARATION = re.compile(r"<([0-9a-f]+)>: Abbrev Number: \d+ "
                         r"\(DW_TAG_subprogram\)\n.*DW_AT_linkage_name.*: "
                         r"(\S+)$", re.M)
INLINE_MARK = re.compile(r"\(DW_TAG_subprogram\)\n"
                         r"(?:.*DW_AT_linkage_name.*: (\S+)\n)?"
                         r"(?:.*DW_AT_specification.*<0x([0-9a-f]+)>\n)?"
                         r".*DW_AT_inline\s*: \([^)]*\) [13]\s", re.M)
#: readelf -SW: the section a relocation section applies to.
RELA_TARGET = re.compile(r"\] \.rela(\S+)\s+RELA\s")
#: objdump's header before each file of a multi-file run.
OBJDUMP_FILE = r"^(\S+):\s+file format \S+\n"
#: objdump -r: a relocation's symbol, without its addend.
RELOC_SYMBOL = re.compile(r"^[0-9a-f]+ R_\S+\s+([^\s+-]+)", re.M)
#: objdump -t: value, the seven flag columns, section, size, name.
SYMBOL_LINE = re.compile(
    r"^([0-9a-f]+) (.{7}) (\S+)\t([0-9a-f]+) (?:\.hidden )?(\S+)$", re.M)
#: objdump -r: one section's relocation records.
RELOCATIONS = re.compile(
    r"^RELOCATION RECORDS FOR \[(.+)\]:\n.*\n((?:.+\n?)*)", re.M)
#: awk over objdump -r: drops the records of the DWARF and unwind
#: sections, most of the output and never a use of a function.
SKIP_DWARF_RELOCATIONS = (
    "/^RELOCATION RECORDS FOR / { skip = ($0 ~ /\\[\\.(debug|eh_frame)/) } "
    "/: +file format / { skip = 0 } !skip")
#: objdump -dr: a function's first line.
FUNCTION_LINE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
#: awk over objdump -dr: each function's first line, then "T target"
#: once for each other symbol one of its branches names in place. An
#: instruction whose operand is relocated reads as a branch to the next
#: address, so its relocation cancels that target.
IN_PLACE_BRANCHES = r"""
function flush() {
    if (pending != "" && !seen[pending]++) print "T " pending
    pending = ""
}
/^Disassembly of section |^[0-9a-f]+ <.*>:$/ {
    flush(); delete seen; fn = substr($2, 2, length($2) - 3); print; next
}
/^\t\t\t[0-9a-f]+: R_/ { pending = ""; next }
/^ +[0-9a-f]+:\t/ {
    flush()
    if (match($0, /<[^<>]*>/)) {
        target = substr($0, RSTART + 1, RLENGTH - 2)
        sub(/\+0x[0-9a-f]+$/, "", target)
        if (target != fn) pending = target
    }
}
END { flush() }
"""
#: objdump -r: offset, type and target of one relocation.
RELOC_RECORD = re.compile(r"^([0-9a-f]+) (R_\S+)\s+(\S+)$", re.M)
#: A relocation target: a symbol or section, and its addend.
RELOC_TARGET = re.compile(r"^(.+?)(?:([+-])0x([0-9a-f]+))?$")
#: Relocations whose addend is the target less the 4-byte field.
PC_RELATIVE = frozenset({"R_X86_64_PC32", "R_X86_64_PLT32",
                         "R_X86_64_GOTPCREL", "R_X86_64_GOTPCRELX",
                         "R_X86_64_REX_GOTPCRELX"})
#: Sections whose targets run when their object is linked.
INIT_SECTIONS = (".init_array", ".preinit_array", ".ctors")

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
    """Symbols named by the relocations of @p paths. DWARF sections are
    left out; their relocations name section symbols only, never a
    function, and they are most of the output."""
    sections = set()
    for _, out, _ in run_batched(["readelf", "-SW"], paths):
        sections.update(name for name in RELA_TARGET.findall(out)
                        if not name.startswith(".debug"))
    if not sections:
        return set()
    select = [arg for name in sorted(sections) for arg in ("-j", name)]
    return {symbol for _, out, _ in run_batched(["objdump", "-r", *select],
                                                paths)
            for symbol in RELOC_SYMBOL.findall(out)}


def library_graph(paths):
    """The relocation graph of the library objects @p paths, from one
    objdump -t -r pass.

    Returns (edges, init, exports, functions). edges maps a symbol
    (mangled, clone suffix dropped) to the symbols its code or data
    relocations name; a relocation against a section plus addend names
    the symbol at that address. init holds what .init_array runs;
    exports maps each external function to its first defining object;
    functions maps each function to the (path, section) pairs that
    hold its code."""
    edges, init, exports, functions = {}, set(), {}, {}
    for batch, out, _ in run_batched(["objdump", "-t", "-r"], paths,
                                     pipe=["awk", SKIP_DWARF_RELOCATIONS]):
        for path, text in per_file(batch, out, OBJDUMP_FILE).items():
            table = {}  # section -> ([start], [(start, end, symbol)])
            for value, flags, section, size, name in sorted(
                    SYMBOL_LINE.findall(text), key=lambda s: int(s[0], 16)):
                base = CLONE_SUFFIX.sub("", name)
                if flags[6] in "FO" and int(size, 16):
                    start = int(value, 16)
                    starts, spans = table.setdefault(section, ([], []))
                    starts.append(start)
                    spans.append((start, start + int(size, 16), base))
                if flags[6] == "F":
                    functions.setdefault(base, set()).add((path, section))
                    if flags[:2] == "g ":
                        exports.setdefault(name, Path(path))
            for section, records in RELOCATIONS.findall(text):
                for offset, kind, target in RELOC_RECORD.findall(records):
                    name = resolve(table, target, kind)
                    if section in INIT_SECTIONS:
                        init.add(name)
                    elif (source := holder(table, section, int(offset, 16))
                          ) and name:
                        edges.setdefault(source, set()).add(name)
    init.discard(None)
    return edges, init, exports, functions


def holder(table, section, offset):
    """The symbol of @p table (section -> (starts, spans), both sorted
    by start) whose bytes hold @p offset of @p section, or None."""
    starts, spans = table.get(section, ((), ()))
    i = bisect.bisect_right(starts, offset) - 1
    if i >= 0 and offset < spans[i][1]:
        return spans[i][2]
    return None


def resolve(table, target, kind):
    """The symbol a relocation of type @p kind against @p target
    names: the target itself, or for a section plus addend the symbol
    of @p table at that address. None for a label or padding."""
    name, sign, addend = RELOC_TARGET.match(target).groups()
    if name not in table:
        return None if name.startswith(".") else CLONE_SUFFIX.sub("", name)
    offset = int(addend or "0", 16) * (-1 if sign == "-" else 1)
    return holder(table, name, offset + (4 if kind in PC_RELATIVE else 0))


def branch_edges(paths, sections):
    """(function, target) pairs of the branches the assembler resolved
    in place in @p sections of @p paths' code, with no relocation left
    to show them: calls to local functions and clones in the same
    section."""
    pairs = set()
    select = [arg for name in sorted(sections) for arg in ("-j", name)]
    for _, out, _ in run_batched(
            ["objdump", "-dr", "--no-show-raw-insn", *select], paths,
            pipe=["awk", IN_PLACE_BRANCHES]):
        source = None
        for line in out.splitlines():
            if line.startswith("T "):
                if source and not line.startswith("T ."):
                    pairs.add((source, CLONE_SUFFIX.sub("", line[2:])))
            elif function := FUNCTION_LINE.match(line):
                source = CLONE_SUFFIX.sub("", function.group(1))
    return pairs


def inline_edges(paths):
    """The inline sites of @p paths, from DWARF (build with -g, as
    RelWithDebInfo and Debug do): objdump's line view names, inside
    each function, the functions inlined into it. Returns (sites,
    lost): sites holds demangled (function, inlined function) pairs;
    lost maps each path to the functions DWARF marks inlined
    (DW_AT_inline) that no other function of it names, since folding
    left no instruction of their sites."""
    sites = {}  # path -> (function, inlined) pairs
    for batch, out, _ in run_batched(
            ["objdump", "-dl", "--inlines", "--no-show-raw-insn"], paths,
            pipe=["awk", INLINE_LINES]):
        for path, text in per_file(batch, out, OBJDUMP_FILE).items():
            sites[path] = set()
            # Every "name():" line in a function's block names it or a
            # function inlined into it, and so does every "inlined by"
            # caller. A block whose first site precedes its first
            # "name():" line inlines the innermost function last named.
            blocks = re.split(r"^[0-9a-f]+ <(.+)>:\n", text, flags=re.M)
            innermost = None
            for function, block in zip(blocks[1::2], blocks[2::2]):
                named = NAME_LINE.findall(block)
                inlined = set(named) | set(INLINED_BY.findall(block))
                site = block.find("inlined by")
                if innermost and site >= 0 and not NAME_LINE.search(
                        block, 0, site):
                    inlined.add(innermost)
                innermost = named[-1] if named else innermost
                source = CLONE_SUFFIX.sub("", function)
                sites[path].update((source, CLONE_SUFFIX.sub("", n))
                                   for n in inlined if n.startswith("_Z"))
    marked = {}
    for batch, out, _ in run_batched(
            ["readelf", "--debug-dump=info", "--wide"], paths,
            pipe=["grep", "-E", DWARF_LINES]):
        for path, text in per_file(batch, out, r"^File: (.+)\n").items():
            marked[path] = inlined_functions(text)
    # Demangled, so constructor and destructor variants are one name
    # and a function's own lines are no site of it.
    names = demangle(set().union(*marked.values(),
                                 *(pair for found in sites.values()
                                   for pair in found)))
    pairs, lost = set(), {}
    for path, found in sites.items():
        found = {(names[a], names[b]) for a, b in found
                 if names[a] != names[b]}
        pairs |= found
        lost[path] = ({names[n] for n in marked.get(path, ())} -
                      {callee for _, callee in found})
    return pairs, lost


def inlined_functions(text):
    """Linkage names of the functions a DWARF info dump marks inlined
    (DW_AT_inline 1, inlined, or 3, declared inline and inlined)."""
    declared = dict(DECLARATION.findall(text))
    names = {name or declared.get(spec)
             for name, spec in INLINE_MARK.findall(text)}
    names.discard(None)
    return names


def demangle(names):
    """Map each mangled name to its demangled form."""
    names = sorted(names)
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True).stdout
    return dict(zip(names, out.splitlines()))


def reach(graph, roots):
    """Every name of @p graph reachable from @p roots, roots included."""
    seen, todo = set(roots), list(roots)
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name not in seen:
                seen.add(name)
                todo.append(name)
    return seen


def dead_exports(library, users, waived=None):
    """Classify the external functions defined in @p library objects by
    reachability. The roots are the symbols @p users' "bench" and
    "example" objects reference, what .init_array runs, and the
    @p waived names (default WAIVED); a function is live when a live
    function or data symbol references it. Names compare demangled, so
    C1/C2 and D1/D2 variants are one function.

    Returns (dead, test_only, stale): the exports no root reaches, as
    sorted (demangled name, defining object) pairs, split by whether
    @p users' "test" objects reach them; and sorted (name, reason)
    pairs of waivers that name no export or one live without them."""
    waived = WAIVED if waived is None else waived
    edges, init, exports, functions = library_graph(library)
    refs = {role: relocated_symbols(objs) for role, objs in users.items()}
    names = demangle(set(edges).union(init, exports, functions,
                                      *edges.values(), *refs.values()))
    graph = {}

    def link(pairs):  # mangled or already demangled names
        for source, target in pairs:
            graph.setdefault(names.get(source, source), set()).add(
                names.get(target, target))

    link((s, t) for s, targets in edges.items() for t in targets)
    base = {names[n] for n in init.union(refs.get("bench", ()),
                                         refs.get("example", ()))}
    roots = base | set(waived)
    live = reach(graph, roots)

    # Branches resolved in place carry no relocation. Disassemble the
    # sections holding unreached functions that lead to an unreached
    # export, until no new one does; on a clean tree that is a handful.
    holders = {}
    for function, places in functions.items():
        holders.setdefault(names[function], set()).update(places)
    disassembled = set()
    while True:
        callers = {}
        for source, targets in graph.items():
            if source not in live:
                for target in targets:
                    callers.setdefault(target, set()).add(source)
        lead = reach(callers, {names[m] for m, obj in exports.items()
                               if names[m] not in live})
        todo = {p for n in lead for p in holders.get(n, ())} - disassembled
        if not todo:
            break
        link(branch_edges(sorted({p for p, _ in todo}),
                          {section for _, section in todo}))
        disassembled |= todo
        live = reach(graph, roots)
    # An export inlined into a function of its own object has no
    # relocation to it; the inline sites of the objects that define an
    # unreached export add those edges.
    suspects = sorted({str(obj) for m, obj in exports.items()
                       if names[m] not in live})
    if suspects:
        sites, lost = inline_edges(suspects)
        link(sites)
        # A site folding emptied has no caller left to name: each
        # export of its object stands in for it.
        link((m, callee) for m, obj in exports.items()
             for callee in lost.get(str(obj), ()))
        live = reach(graph, roots)
    tested = reach(graph, {names[n] for n in refs.get("test", ())})
    dead, test_only = set(), set()
    for mangled, obj in exports.items():
        name = names[mangled]
        if name not in live:
            (test_only if name in tested else dead).add((name, obj))
    defined = {names[m] for m in exports}
    stale = []
    for name in sorted(waived):
        if name not in defined:
            stale.append((name, "names no exported function"))
        elif name in reach(graph, base | (set(waived) - {name})):
            stale.append((name, "is live without its waiver"))
    return sorted(dead), sorted(test_only), stale


def audit_dead_exports(build, root, waived=None):
    """The reachability pass over a build tree: (findings, test-only
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
    library = users.pop("library", [])
    dead, test_only, stale = dead_exports(library, users, waived)

    def source(obj):
        return source_of_object(obj.relative_to(build).parts)

    def finding(kind, name, obj, message):
        return {"kind": kind, "path": obj.relative_to(build).as_posix(),
                "source": source(obj), "symbol": name,
                "message": message % (name, source(obj))}

    findings = [finding("dead-export", name, obj,
                        "%s (from %s) is exported but nothing reaches it "
                        "from a bench, example or test object")
                for name, obj in dead]
    findings += [finding("test-only-export", name, obj,
                         "%s (from %s) is exported but only tests reach "
                         "it: delete it, move it into tests/, or waive "
                         "it naming its user")
                 for name, obj in test_only]
    findings += [{"kind": "stale-waiver", "path": None, "source": None,
                  "symbol": name,
                  "message": "WAIVED entry %s %s" % (name, reason)}
                 for name, reason in stale]
    return findings, [{"symbol": name, "source": source(obj)}
                      for name, obj in test_only]


def audit_build(build_dir, nm, root, json_path=None, waived=None):
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

    dead, test_only = audit_dead_exports(build, root, waived)
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
            "waived_exports": WAIVED if waived is None else waived,
            "test_only_exports": test_only,
            "violations": len(findings),
            "findings": findings,
        }, indent=2) + "\n")

    for finding in findings:
        print("audit_symbols: " + finding["message"])
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
    library_names = ("planted_dead_export", "test_only_cold",
                     "test_only_callee", "inlined_live", "waived_export")
    names = ("planted_wallclock", "clean_virtual", *library_names,
             "live_user", "dead_export_user", "stale_object")
    sources = {name: fixtures / (name + ".cc") for name in names}
    for path in sources.values():
        if not path.is_file():
            print("audit_symbols self-test: missing fixture %s" % path)
            return 2

    failures = 0

    def check(ok, passed, failed):
        nonlocal failures
        print(("self-test ok: " + passed) if ok
              else ("SELF-TEST FAIL: " + failed))
        failures += not ok

    with tempfile.TemporaryDirectory(prefix="audit_selftest") as tmp:
        # Flags under which an in-section call carries no relocation
        # and a small callee is inlined away, as in optimised builds.
        lib_flags = ("-O2", "-g", "-fPIC", "-fno-semantic-interposition")
        objs = {name: compile_fixture(
                    cxx, sources[name], tmp,
                    lib_flags if name in library_names else ())
                for name in names if name != "stale_object"}
        if None in objs.values():
            return 2

        symbols = undefined_symbols(
            nm, [objs["planted_wallclock"], objs["clean_virtual"]])
        planted, clean = (sorted((symbols[str(objs[n])] or set()) & FORBIDDEN)
                          for n in ("planted_wallclock", "clean_virtual"))
        check("clock_gettime" in planted,
              "planted_wallclock.o references %s" % ", ".join(planted),
              "planted clock_gettime reference not detected")
        check(not clean, "clean_virtual.o references no forbidden symbol",
              "clean fixture references %s" % ", ".join(clean))

        # The .cold rule proves nothing unless GCC split the fragment.
        cold = subprocess.run(["objdump", "-t", str(objs["test_only_cold"])],
                              capture_output=True, text=True).stdout
        check(".cold" in cold, "test_only_cold.o has a .cold fragment",
              "test_only_cold.o has no .cold fragment to prove the rule")

        library = [objs[n] for n in library_names]
        waived = {"rapid_fixture::outsideOnly(int)": "used outside",
                  "rapid_fixture::alreadyLive(int)": "stale: live",
                  "rapid_fixture::goneExport(int)": "stale: gone"}
        dead, test_only, stale = dead_exports(
            library, {"bench": [objs["live_user"]],
                      "test": [objs["dead_export_user"]]}, waived)
        got = ([n for n, _ in dead], [n for n, _ in test_only])
        want = (["rapid_fixture::plantedDeadExport(int)"],
                ["rapid_fixture::Meter::Meter(int)",
                 "rapid_fixture::Widget::Widget(int)",
                 "rapid_fixture::Widget::~Widget()",
                 "rapid_fixture::checkedThird(int)",
                 "rapid_fixture::halfStep(int)",
                 "rapid_fixture::scaledSum(int)",
                 "rapid_fixture::testOnlyEntry(int)",
                 "rapid_fixture::testOnlyExport(int)",
                 "rapid_fixture::testOnlyStep(int)"])
        check(got == want,
              "the planted dead and test-only exports, and no live one "
              "(in-place call, inline site, folded inline site, a call "
              "that reads as a branch to the next .cold fragment, "
              "test-only callers)",
              "dead/test-only exports %s, want %s" % (got, want))
        want_stale = [
            ("rapid_fixture::alreadyLive(int)", "is live without its waiver"),
            ("rapid_fixture::goneExport(int)", "names no exported function")]
        check(stale == want_stale,
              "stale waivers found: one live without it, one naming "
              "nothing",
              "stale waivers %s, want %s" % (stale, want_stale))

        # A tree whose only fault is a test-only export fails the run.
        tree = Path(tmp) / "tree"
        lib_dir = (tree / "build" / "src" / "fixture" / "CMakeFiles" /
                   "rapid_fixture.dir")
        test_dir = tree / "build" / "tests" / "CMakeFiles" / "t.dir"
        lib_dir.mkdir(parents=True)
        test_dir.mkdir(parents=True)
        (tree / "src" / "fixture").mkdir(parents=True)
        (tree / "tests").mkdir()
        (tree / "src" / "fixture" / "test_only_callee.cc").write_text("")
        (tree / "tests" / "dead_export_user.cc").write_text("")
        (lib_dir / "test_only_callee.cc.o").write_bytes(
            objs["test_only_callee"].read_bytes())
        (test_dir / "dead_export_user.cc.o").write_bytes(
            objs["dead_export_user"].read_bytes())
        report = tree / "findings.json"
        status = audit_build(tree / "build", nm, tree, report, waived={})
        kinds = sorted(f["kind"] for f in
                       json.loads(report.read_text())["findings"])
        check(status == 1 and kinds == ["test-only-export"] * 2,
              "a tree whose only findings are test-only exports fails",
              "test-only tree exited %d with findings %s" % (status, kinds))
        for path in (lib_dir / "test_only_callee.cc.o",
                     test_dir / "dead_export_user.cc.o", report):
            path.unlink()

        # A library object left behind in a build tree whose source
        # tree no longer has its source: skipped while the source is
        # gone, audited (a dead export) once it is back.
        stale_obj = compile_fixture(cxx, sources["stale_object"], lib_dir,
                                    ("-O2",))
        if stale_obj is None:
            return 2
        stale_obj.rename(lib_dir / "stale_object.cc.o")
        gone = audit_dead_exports(tree / "build", tree, waived={})
        (tree / "src" / "fixture" / "stale_object.cc").write_text("")
        back = audit_dead_exports(tree / "build", tree, waived={})
        check(gone == ([], []) and [f["symbol"] for f in back[0]] == [
                  "rapid_fixture::staleExport(int)"],
              "stale_object.cc.o is skipped while its source is gone",
              "stale object audited as %s without its source and %s "
              "with it" % (gone, back))

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
        tu_obj.write_bytes(objs["clean_virtual"].read_bytes())
        gone = tu_obj in live_objects(tree / "build", tree)
        (tree / "src" / "fixture" / "gone.hh").write_text("")
        back = tu_obj in live_objects(tree / "build", tree)
        check(not gone and back,
              "header_tus/fixture__gone.cc.o is skipped while its header "
              "is gone",
              "header TU object live=%s without its header and live=%s "
              "with it" % (gone, back))

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
