#!/usr/bin/env python3
"""Unit tests for the rapid_analyzer internals.

The fixture self-test (rapid_lint --self-test) proves every check
fires end to end; these tests pin down the layers underneath it --
the lexer's handling of the C++ translation-phase corners that broke
the old regex linter, the include-graph resolver, and the layering /
cycle passes on synthetic graphs.
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from rapid_analyzer import lexer  # noqa: E402
from rapid_analyzer.checks import (  # noqa: E402
    TokenFile, check_float_eq, check_serial_model)
from rapid_analyzer.include_graph import (  # noqa: E402
    MODULE_TIERS, IncludeGraph, module_of)


def ids(text):
    return [t.text for t in lexer.lex(text).tokens if t.kind == "ID"]


def kinds(text):
    return [t.kind for t in lexer.lex(text).tokens]


class LexerComments(unittest.TestCase):
    def test_line_comment_stripped(self):
        self.assertEqual(ids("int x; // rand() time(nullptr)\nint y;"),
                         ["int", "x", "int", "y"])

    def test_block_comment_stripped_across_lines(self):
        text = "int a; /* srand(1)\n rand() */ int b;"
        self.assertEqual(ids(text), ["int", "a", "int", "b"])

    def test_block_comments_do_not_nest(self):
        # Per the standard, /* /* */ closes at the FIRST */ -- the
        # trailing identifier is real code, not comment.
        text = "/* outer /* inner */ leaked(); /* tail */"
        self.assertIn("leaked", ids(text))

    def test_comment_inside_string_is_opaque(self):
        # The // inside the literal must neither kill the rest of the
        # line nor surface in any token text.
        text = 'auto s = "not // a comment"; rand();'
        self.assertEqual(ids(text), ["auto", "s", "rand"])
        self.assertEqual(kinds(text).count("STR"), 1)

    def test_line_numbers_survive_block_comment(self):
        text = "/* one\n two\n three */ int x;\n"
        tok = [t for t in lexer.lex(text).tokens if t.text == "x"][0]
        self.assertEqual(tok.line, 3)


class LexerSplices(unittest.TestCase):
    def test_spliced_line_comment_swallows_next_line(self):
        # The backslash-newline extends the comment over rand().
        text = "int a; // spliced \\\nrand();\nint b;"
        self.assertEqual(ids(text), ["int", "a", "int", "b"])

    def test_spliced_identifier(self):
        self.assertEqual(ids("ra\\\nnd();"), ["rand"])

    def test_spliced_string(self):
        text = 'auto s = "ab\\\ncd"; int after;'
        self.assertEqual(ids(text), ["auto", "s", "int", "after"])
        self.assertEqual(kinds(text).count("STR"), 1)


class LexerStrings(unittest.TestCase):
    def test_escaped_quote_does_not_end_string(self):
        text = r'auto s = "a\"b"; rand();'
        self.assertEqual(kinds(text).count("STR"), 1)
        self.assertIn("rand", ids(text))

    def test_char_literal_quote(self):
        # A '"' char literal must not open a string.
        self.assertEqual(ids("char c = '\"'; int after;"),
                         ["char", "c", "int", "after"])

    def test_raw_string_ignores_escapes_and_quotes(self):
        text = r'auto s = R"(no \" escape " here)"; int after;'
        self.assertEqual(kinds(text).count("RAWSTR"), 1)
        self.assertEqual(ids(text), ["auto", "s", "int", "after"])

    def test_raw_string_with_delimiter_spans_lines(self):
        text = 'auto s = R"ml(line one )" not the end\nrand();\n)ml"; int z;'
        self.assertEqual(ids(text), ["auto", "s", "int", "z"])

    def test_prefixed_strings(self):
        for prefix in ("u8", "u", "U", "L"):
            text = 'auto s = %s"rand"; int after;' % prefix
            self.assertEqual(kinds(text).count("STR"), 1,
                             "prefix %s" % prefix)
            self.assertEqual(ids(text), ["auto", "s", "int", "after"],
                             "prefix %s" % prefix)

    def test_identifier_ending_in_upper_r_is_not_raw_prefix(self):
        # `setR "x"` -- the R belongs to the identifier; the literal is
        # an ordinary string, not a raw one.
        text = 'setR "x"; int after;'
        self.assertEqual(kinds(text).count("STR"), 1)
        self.assertEqual(kinds(text).count("RAWSTR"), 0)
        self.assertEqual(ids(text), ["setR", "int", "after"])


class LexerDirectives(unittest.TestCase):
    def test_quote_include(self):
        toks = lexer.lex('#include "perf/model.hh"\n').tokens
        inc = [t for t in toks if t.kind == "INCLUDE"]
        self.assertEqual([(t.text, t.system) for t in inc],
                         [("perf/model.hh", False)])

    def test_system_include(self):
        toks = lexer.lex("#include <vector>\n").tokens
        inc = [t for t in toks if t.kind == "INCLUDE"]
        self.assertEqual([(t.text, t.system) for t in inc],
                         [("vector", True)])

    def test_indented_directive(self):
        toks = lexer.lex('  #  include "a/b.hh"\n').tokens
        self.assertEqual([t.text for t in toks if t.kind == "INCLUDE"],
                         ["a/b.hh"])

    def test_include_in_comment_ignored(self):
        toks = lexer.lex('// #include "serve/server_sim.hh"\n').tokens
        self.assertEqual([t for t in toks if t.kind == "INCLUDE"], [])

    def test_guard_tokens_stay_visible(self):
        text = "#ifndef RAPID_X_HH\n#define RAPID_X_HH\n#endif\n"
        lexed = lexer.lex(text)
        directives = [t.text for t in lexed.tokens if t.kind == "DIRECTIVE"]
        self.assertEqual(directives, ["ifndef", "define", "endif"])
        self.assertEqual(ids(text), ["RAPID_X_HH", "RAPID_X_HH"])


class LexerWaivers(unittest.TestCase):
    def test_waiver_harvested_with_line(self):
        lexed = lexer.lex("int a;\nfoo(); // rapid-lint: allow(no-rand)\n")
        self.assertEqual(lexed.allows, {2: {"no-rand"}})

    def test_waiver_list(self):
        lexed = lexer.lex("x; // rapid-lint: allow(no-rand, float-eq)\n")
        self.assertEqual(lexed.allows, {1: {"no-rand", "float-eq"}})


class CheckHelpers(unittest.TestCase):
    def test_float_eq_flags_float_literal_comparison(self):
        toks = lexer.lex("if (x == 1.0) {}\n").tokens
        findings = list(check_float_eq(TokenFile("src/precision/x.cc", toks)))
        self.assertEqual([f.check for f in findings], ["float-eq"])

    def test_float_eq_ignores_integer_comparison(self):
        toks = lexer.lex("if (x == 10) {}\n").tokens
        self.assertEqual(
            list(check_float_eq(TokenFile("src/precision/x.cc", toks))), [])


    def serial_model(self, rel, text):
        toks = lexer.lex(text).tokens
        return [f.check for f in check_serial_model(TokenFile(rel, toks))]

    def test_serial_model_flags_pool_calls_in_model_dirs(self):
        for rel in ("src/compiler/x.cc", "src/perf/x.cc",
                    "src/power/x.cc", "src/runtime/x.hh"):
            self.assertEqual(
                self.serial_model(rel, "auto v = parallelMap(n, f);\n"
                                       "rapid::parallelFor(n, g);\n"),
                ["serial-model", "serial-model"], rel)

    def test_serial_model_allows_sweep_layers_and_comments(self):
        call = "auto v = parallelMap(n, f);\n"
        for rel in ("src/serve/x.cc", "src/sim/x.cc", "src/common/x.cc",
                    "bench/x.cc", "tests/x.cc"):
            self.assertEqual(self.serial_model(rel, call), [], rel)
        self.assertEqual(
            self.serial_model("src/perf/x.cc",
                              "// no parallelMap here\n"
                              "const char *s = \"parallelFor\";\n"),
            [])


class GraphResolver(unittest.TestCase):
    def test_module_of(self):
        self.assertEqual(module_of("src/perf/perf_model.hh"), "perf")
        self.assertEqual(module_of("src/common/log.hh"), "common")
        self.assertIsNone(module_of("tests/test_perf.cc"))

    def test_tier_map_covers_seventeen_modules(self):
        self.assertEqual(len(MODULE_TIERS), 17)

    def test_quote_include_resolves_to_src(self):
        g = IncludeGraph()
        g.add_file("src/common/log.hh", [])
        g.add_file("src/perf/perf_model.hh",
                   [(3, "common/log.hh", False), (4, "vector", True)])
        edges = [(e.src_rel, e.dst_rel, e.line) for e in g.resolved_edges()]
        self.assertEqual(edges,
                         [("src/perf/perf_model.hh",
                           "src/common/log.hh", 3)])

    def test_unknown_target_not_an_edge(self):
        g = IncludeGraph()
        g.add_file("src/perf/a.hh", [(1, "mystery/gone.hh", False)])
        self.assertEqual(g.resolved_edges(), [])


class LayeringPass(unittest.TestCase):
    def test_downward_edge_allowed(self):
        g = IncludeGraph()
        g.add_file("src/perf/a.hh", [(1, "common/b.hh", False)])
        self.assertEqual(g.layering_findings(), [])

    def test_same_tier_edge_allowed(self):
        g = IncludeGraph()
        g.add_file("src/perf/a.hh", [(1, "power/b.hh", False)])
        self.assertEqual(g.layering_findings(), [])

    def test_back_edge_reported(self):
        g = IncludeGraph()
        g.add_file("src/precision/quantize.hh",
                   [(7, "serve/server_sim.hh", False)])
        findings = g.layering_findings()
        self.assertEqual([f.check for f in findings], ["layering"])
        self.assertEqual(findings[0].file, "src/precision/quantize.hh")
        self.assertEqual(findings[0].line, 7)
        self.assertIn("serve", findings[0].message)

    def test_cluster_sits_above_serve(self):
        # The fleet layer may reach down into serve; a serve chip
        # including cluster headers would observe its own failover.
        g = IncludeGraph()
        g.add_file("src/cluster/fleet.hh",
                   [(1, "serve/server_sim.hh", False),
                    (2, "resilience/resilient_trainer.hh", False),
                    (3, "interconnect/ring.hh", False)])
        self.assertEqual(g.layering_findings(), [])
        g2 = IncludeGraph()
        g2.add_file("src/serve/server_sim.hh",
                    [(4, "cluster/fleet.hh", False)])
        findings = g2.layering_findings()
        self.assertEqual([f.check for f in findings], ["layering"])
        self.assertIn("cluster", findings[0].message)

    def test_llm_sits_beside_serve(self):
        # The transformer layer shares tier 5 with serve (it reuses
        # the frozen LatencyTable); an arch file including llm
        # headers would be a back-edge.
        g = IncludeGraph()
        g.add_file("src/llm/llm_sim.hh",
                   [(1, "serve/latency_table.hh", False),
                    (2, "arch/config.hh", False),
                    (3, "workloads/networks.hh", False)])
        self.assertEqual(g.layering_findings(), [])
        g2 = IncludeGraph()
        g2.add_file("src/arch/config.hh",
                    [(4, "llm/kv_cache.hh", False)])
        findings = g2.layering_findings()
        self.assertEqual([f.check for f in findings], ["layering"])
        self.assertIn("llm", findings[0].message)

    def test_unknown_module_reported(self):
        g = IncludeGraph()
        g.add_file("src/mystery/a.hh", [(1, "common/b.hh", False)])
        self.assertEqual([f.check for f in g.layering_findings()],
                         ["layering"])

    def test_tests_may_include_anything(self):
        g = IncludeGraph()
        g.add_file("tests/test_serve.cc",
                   [(1, "serve/server_sim.hh", False)])
        self.assertEqual(g.layering_findings(), [])


class CyclePass(unittest.TestCase):
    def test_two_file_cycle_reported_once(self):
        g = IncludeGraph()
        g.add_file("src/perf/a.hh", [(1, "compiler/b.hh", False)])
        g.add_file("src/compiler/b.hh", [(1, "perf/a.hh", False)])
        cycles = [f for f in g.cycle_findings()
                  if f.message.startswith("include cycle:")]
        self.assertEqual(len(cycles), 1)
        self.assertIn("src/perf/a.hh", cycles[0].message)
        self.assertIn("src/compiler/b.hh", cycles[0].message)

    def test_module_scc_reported(self):
        # perf -> compiler through one file pair, compiler -> perf
        # through another: no file-level cycle, but the contracted
        # module graph has an SCC of two.
        g = IncludeGraph()
        g.add_file("src/perf/a.hh", [(1, "compiler/b.hh", False)])
        g.add_file("src/compiler/c.hh", [(1, "perf/d.hh", False)])
        g.add_file("src/perf/d.hh", [])
        g.add_file("src/compiler/b.hh", [])
        findings = g.cycle_findings()
        sccs = [f for f in findings
                if f.message.startswith("module-level cycle")]
        self.assertEqual(len(sccs), 1)
        self.assertIn("compiler", sccs[0].message)
        self.assertIn("perf", sccs[0].message)
        self.assertEqual(
            [f for f in findings
             if f.message.startswith("include cycle:")], [])

    def test_acyclic_graph_clean(self):
        g = IncludeGraph()
        g.add_file("src/perf/a.hh", [(1, "compiler/b.hh", False)])
        g.add_file("src/compiler/b.hh", [(1, "common/c.hh", False)])
        g.add_file("src/common/c.hh", [])
        self.assertEqual(g.cycle_findings(), [])

    def test_self_include_is_a_degenerate_cycle(self):
        # A header including itself relies entirely on its guard;
        # the pass reports it like any other cycle.
        g = IncludeGraph()
        g.add_file("src/perf/a.hh", [(1, "perf/a.hh", False)])
        cycles = [f for f in g.cycle_findings()
                  if f.message.startswith("include cycle:")]
        self.assertEqual(len(cycles), 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
