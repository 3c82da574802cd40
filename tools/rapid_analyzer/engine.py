"""Tree walker and findings engine for rapid_analyzer.

One pass lexes every C++ file under the scan dirs, runs the token
checks, and feeds the include directives into the include graph; the
whole-program layering and cycle passes then run over that graph.
Waivers collected by the lexer suppress findings line by line, for
token and graph findings alike.
"""

import json
from pathlib import Path

from . import checks as checks_mod
from . import lexer
from .checks import TokenFile, ALL_CHECKS, TOKEN_CHECKS
from .include_graph import Finding, IncludeGraph

CXX_EXTENSIONS = {".cc", ".cpp", ".hh", ".h"}

#: Directories scanned for C++ sources, relative to the repo root.
SCAN_DIRS = ("src", "tests", "bench", "examples")


class Analyzer:
    def __init__(self, root):
        self.root = Path(root)
        self.findings = []
        self.graph = IncludeGraph()
        # (rel_posix, line) -> waived check names, for graph passes
        # that report after the per-file walk.
        self._allows = {}
        self.files_scanned = 0

    # -- per-file ----------------------------------------------------------

    def analyze_file(self, path, rel):
        """Lex and check one file; @p rel is the path the checks see,
        which the self-test aims at src/precision/ deliberately."""
        rel_posix = rel.as_posix()
        try:
            text = path.read_text(errors="replace")
        except OSError as err:
            self.findings.append(Finding(rel_posix, 0, "read-error",
                                         str(err)))
            return
        self.files_scanned += 1
        lexed = lexer.lex(text)
        for line, names in lexed.allows.items():
            self._allows.setdefault((rel_posix, line), set()).update(names)

        tf = TokenFile(rel_posix, lexed.tokens)
        for check in TOKEN_CHECKS:
            for finding in check(tf):
                self._report(finding)

        includes = [(t.line, t.text, t.system)
                    for t in lexed.tokens if t.kind == "INCLUDE"]
        self.graph.add_file(rel_posix, includes)

    def _report(self, finding):
        waived = self._allows.get((finding.file, finding.line), ())
        if finding.check in waived:
            return
        self.findings.append(finding)

    # -- whole tree --------------------------------------------------------

    def run(self):
        for top in SCAN_DIRS:
            base = self.root / top
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix not in CXX_EXTENSIONS:
                    continue
                rel = path.relative_to(self.root)
                if "lint_fixtures" in rel.parts:
                    continue
                self.analyze_file(path, rel)
        for finding in self.graph.layering_findings():
            self._report(finding)
        for finding in self.graph.cycle_findings():
            self._report(finding)
        self.findings.sort(key=lambda f: (f.file, f.line, f.check))
        return self.findings

    # -- reporting ---------------------------------------------------------

    def write_json(self, path):
        """Machine-readable findings for CI artifacts."""
        payload = {
            "tool": "rapid_analyzer",
            "schema_version": 1,
            "root": str(self.root),
            "files_scanned": self.files_scanned,
            "checks": list(ALL_CHECKS),
            "violations": len(self.findings),
            "findings": [
                {"file": f.file, "line": f.line, "check": f.check,
                 "message": f.message}
                for f in self.findings
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")


#: Checks scoped to directories that exclude src/precision, mapped to
#: the directory their bad_* fixtures are linted under.
FIXTURE_DIRS = {"serial-model": "src/perf"}


def analyze_fixture(root, path, lint_dir="src/precision"):
    """Analyze one fixture file as if it lived at <lint_dir>/<name>;
    under the default src/precision every check but those in
    FIXTURE_DIRS applies. Returns the findings."""
    analyzer = Analyzer(root)
    analyzer.analyze_file(path, Path(lint_dir) / path.name)
    for finding in analyzer.graph.layering_findings():
        analyzer._report(finding)
    for finding in analyzer.graph.cycle_findings():
        analyzer._report(finding)
    return analyzer.findings


# ---------------------------------------------------------------------------
# Self-test: every fixture under tools/lint_fixtures/bad_* must trip
# exactly its named check; good_* fixtures must stay clean; the
# cycle_bad/ and cycle_good/ mini-trees exercise the include-cycle
# pass, which needs a resolvable graph rather than a single file.
# A double underscore in the stem separates the check name from a
# variant tag (bad_layering__cluster.cc trips "layering"), so one
# check can have several planted violations side by side.
# ---------------------------------------------------------------------------

def self_test(root):
    fixtures = Path(root) / "tools" / "lint_fixtures"
    if not fixtures.is_dir():
        print("rapid_analyzer self-test: no fixtures at %s" % fixtures)
        return 2
    failures = 0

    for path in sorted(fixtures.iterdir()):
        if path.suffix not in CXX_EXTENSIONS:
            continue
        if path.name.startswith("bad_"):
            expect = (path.stem[len("bad_"):].split("__", 1)[0]
                      .replace("_", "-"))
            found = {f.check for f in analyze_fixture(
                root, path, FIXTURE_DIRS.get(expect, "src/precision"))}
            if expect not in found:
                print("SELF-TEST FAIL: %s did not trip %s (got %s)"
                      % (path.name, expect, sorted(found) or "nothing"))
                failures += 1
            else:
                print("self-test ok: %s trips %s" % (path.name, expect))
        elif path.name.startswith("good_"):
            # Linted as if under src/precision; a clean file must stay
            # clean.
            found = {f.check for f in analyze_fixture(root, path)}
            if found:
                print("SELF-TEST FAIL: %s tripped %s"
                      % (path.name, sorted(found)))
                failures += 1
            else:
                print("self-test ok: %s is clean" % path.name)

    for name, expect_cycle in (("cycle_bad", True), ("cycle_good", False)):
        tree = fixtures / name
        if not tree.is_dir():
            print("SELF-TEST FAIL: missing fixture tree %s" % tree)
            failures += 1
            continue
        found = Analyzer(tree).run()
        cycles = [f for f in found if f.check == "include-cycle"]
        others = [f for f in found if f.check != "include-cycle"]
        if others:
            print("SELF-TEST FAIL: %s tripped non-cycle checks %s"
                  % (name, sorted({f.check for f in others})))
            failures += 1
        elif expect_cycle and not cycles:
            print("SELF-TEST FAIL: %s did not trip include-cycle" % name)
            failures += 1
        elif not expect_cycle and cycles:
            print("SELF-TEST FAIL: %s tripped include-cycle" % name)
            failures += 1
        else:
            print("self-test ok: %s %s include-cycle"
                  % (name, "trips" if expect_cycle else "stays clean of"))

    if failures:
        return 2
    print("rapid_analyzer self-test passed")
    return 0
