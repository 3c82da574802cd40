"""rapid_analyzer: token-level static analysis for the RaPiD tree.

The successor of the original per-line regex linter (rapid_lint). The
analyzer is built from three layers:

  lexer.py          a preprocessor-aware C++ tokenizer: strips line and
                    block comments (collecting waiver markers), string/
                    char literals and raw strings, splices backslash-
                    continued lines, and lexes #include directives into
                    dedicated tokens. Checks see code tokens only, so
                    violation text inside a comment or string can never
                    flag again.
  include_graph.py  the include graph over src/ plus the declared
                    module layering DAG (forbidden-edge and cycle
                    reporting).
  checks.py         the check passes: the nine original rapid_lint
                    invariants ported onto the token stream, plus the
                    whole-program layering, determinism, and throw-
                    discipline families.

engine.py walks the tree, runs every pass, applies waivers, and can
emit machine-readable JSON findings for CI; cli.py is the command-line
front end, run as a module from tools/ (or with tools/ on PYTHONPATH):

    python3 -m rapid_analyzer --root <repo> [--json findings.json]
    python3 -m rapid_analyzer --root <repo> --self-test

A finding on a given line is waived with a trailing comment:

    // rapid-lint: allow(<check-name>)  -- why the waiver is sound

Exit status: 0 clean, 1 findings reported, 2 self-test failure or
usage error.
"""

__all__ = [
    "lexer",
    "include_graph",
    "checks",
    "engine",
    "cli",
]
