"""Command-line front end for rapid_analyzer.

Usage, from the repository root:

    PYTHONPATH=tools python3 -m rapid_analyzer --root . [--json findings.json]
    PYTHONPATH=tools python3 -m rapid_analyzer --root . --self-test
"""

import argparse
import sys

from .checks import ALL_CHECKS
from .engine import Analyzer, SCAN_DIRS, self_test


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rapid_analyzer",
        description="Token-level static analysis for the RaPiD tree "
                    "(lexer -> include graph -> check passes).")
    parser.add_argument("--root", default=".",
                        help="repository root to analyze")
    parser.add_argument("--self-test", action="store_true",
                        help="run the analyzer against its fixtures")
    parser.add_argument("--json", metavar="PATH",
                        help="also write machine-readable findings to "
                             "PATH (written even when clean)")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check catalog and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for name in ALL_CHECKS:
            print(name)
        return 0

    if args.self_test:
        return self_test(args.root)

    analyzer = Analyzer(args.root)
    if not any((analyzer.root / top).is_dir() for top in SCAN_DIRS):
        print("rapid_analyzer: no source directories under %s "
              "(expected one of: %s)"
              % (analyzer.root, ", ".join(SCAN_DIRS)))
        return 2

    findings = analyzer.run()
    for f in findings:
        print("%s:%d: [%s] %s" % (f.file, f.line, f.check, f.message))
    if args.json:
        analyzer.write_json(args.json)
    if findings:
        print("rapid_analyzer: %d violation(s) in %d file(s) scanned"
              % (len(findings), analyzer.files_scanned))
        return 1
    print("rapid_analyzer: clean (%d files scanned)"
          % analyzer.files_scanned)
    return 0


if __name__ == "__main__":
    sys.exit(main())
