"""Include graph and module layering DAG for rapid_analyzer.

The 17 modules under src/ obey a declared dependency order (lower
tiers never include higher ones):

    tier 0  common
    tier 1  precision  tensor
    tier 2  arch  interconnect  workloads
    tier 3  perf  power  compiler  func  sim
    tier 4  runtime  fault
    tier 5  serve  resilience  llm
    tier 6  cluster

A quoted include whose target module sits on a *higher* tier than the
including module is a forbidden back-edge ("layering"). Modules on the
same tier may include each other (power uses perf's models, sim uses
the compiler's program format), but any cycle that creates -- at file
or at module granularity -- is reported ("include-cycle"): a module
cycle means the declared order is a lie, and a header cycle will not
even preprocess reliably.

The fault oracle itself lives in src/common/fault.* exactly so this
map holds: every tier-2/3 hardware-site model draws injection
decisions from the oracle, while campaign-level fault tooling
(src/fault/storage_sim) stays up at tier 4 where it belongs.

The deterministic DES engine (src/common/des.*) sits at tier 0 for
the same reason: every simulator above it — the chip sim at tier 3,
the serving front-end at tier 5 — schedules its virtual-clock events
through the engine, so the engine may depend on nothing but the pool
and error machinery beside it in common.

The fleet layer (src/cluster) sits alone at tier 6: it composes
whole ServeSims and ResilientTrainers behind a router, so it may
reach down into serve and resilience (its ring fabric delay is
closed-form arithmetic, so it includes nothing from interconnect),
but nothing below tier 6 may know a fleet exists — a serve
chip that included cluster headers could observe its own failover,
which is exactly the dependency inversion the router abstraction
forbids.
"""

from collections import namedtuple

#: Declared tier of every src/ module. Extending the tree with a new
#: module without declaring it here is itself a finding ("layering",
#: unknown module) so the map cannot silently rot.
MODULE_TIERS = {
    "common": 0,
    "precision": 1,
    "tensor": 1,
    "arch": 2,
    "interconnect": 2,
    "workloads": 2,
    "perf": 3,
    "power": 3,
    "compiler": 3,
    "func": 3,
    "sim": 3,
    "runtime": 4,
    "fault": 4,
    "serve": 5,
    "resilience": 5,
    "llm": 5,
    "cluster": 6,
}

#: One include edge: src_rel/dst_rel are posix paths relative to the
#: repo root ("src/perf/perf_model.hh"); line is the directive's line
#: in src_rel.
Edge = namedtuple("Edge", "src_rel dst_rel line")

Finding = namedtuple("Finding", "file line check message")


def module_of(rel_posix):
    """Module name of a src/ file ("src/perf/plan.hh" -> "perf"),
    or None outside src/."""
    parts = rel_posix.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


class IncludeGraph:
    """Quoted-include graph over the scanned tree.

    Files are registered with the includes the lexer extracted; the
    layering and cycle passes then run over the whole graph. Only
    quoted includes participate -- angle includes name the standard
    library, which is outside the layering contract.
    """

    def __init__(self, root_files=None):
        # rel_posix -> [(line, path, system), ...]
        self.includes = {}
        # Set of rel_posix paths that exist in the scanned tree, for
        # resolving "module/name.hh" to a graph node.
        self.known = set(root_files or ())

    def add_file(self, rel_posix, include_tokens):
        self.known.add(rel_posix)
        self.includes[rel_posix] = list(include_tokens)

    # -- edge resolution ---------------------------------------------------

    def resolved_edges(self):
        """Quoted-include edges between files of the scanned tree,
        resolving against the single include root src/."""
        edges = []
        for src_rel in sorted(self.includes):
            for line, path, system in self.includes[src_rel]:
                if system:
                    continue
                dst_rel = "src/" + path
                if dst_rel in self.known:
                    edges.append(Edge(src_rel, dst_rel, line))
        return edges

    # -- layering ----------------------------------------------------------

    def layering_findings(self):
        """Forbidden back-edges: a src/ file including a module on a
        higher tier than its own, or a module missing from the
        declared map entirely."""
        findings = []
        for src_rel in sorted(self.includes):
            src_mod = module_of(src_rel)
            if src_mod is None:
                continue  # tests/bench/examples may include anything
            src_tier = MODULE_TIERS.get(src_mod)
            if src_tier is None:
                findings.append(Finding(
                    src_rel, 1, "layering",
                    "module '%s' is not in the declared layering map; "
                    "add it to tools/rapid_analyzer/include_graph.py "
                    "at the right tier" % src_mod))
                continue
            for line, path, system in self.includes[src_rel]:
                if system:
                    continue
                dst_mod = path.split("/")[0] if "/" in path else None
                if dst_mod is None or dst_mod not in MODULE_TIERS:
                    continue
                dst_tier = MODULE_TIERS[dst_mod]
                if dst_tier > src_tier:
                    findings.append(Finding(
                        src_rel, line, "layering",
                        "forbidden back-edge: %s (tier %d) includes "
                        "\"%s\" from module '%s' (tier %d); the "
                        "declared order is common -> precision/tensor "
                        "-> arch/interconnect/workloads -> perf/power/"
                        "compiler/func/sim -> runtime/fault -> "
                        "serve/resilience/llm -> cluster"
                        % (src_mod, src_tier, path, dst_mod, dst_tier)))
        return findings

    # -- cycles ------------------------------------------------------------

    def cycle_findings(self):
        """File-level include cycles plus module-level strongly
        connected components of size > 1. Either one breaks the
        layering DAG's guarantees even when every individual edge
        looks tier-legal."""
        findings = []
        adjacency = {}
        for edge in self.resolved_edges():
            adjacency.setdefault(edge.src_rel, []).append(edge)

        findings.extend(self._file_cycles(adjacency))
        findings.extend(self._module_cycles())
        return findings

    def _file_cycles(self, adjacency):
        findings = []
        WHITE, GREY, BLACK = 0, 1, 2
        color = {}
        stack = []
        reported = set()

        def visit(node):
            color[node] = GREY
            stack.append(node)
            for edge in adjacency.get(node, ()):
                dst = edge.dst_rel
                state = color.get(dst, WHITE)
                if state == GREY:
                    cycle = tuple(stack[stack.index(dst):] + [dst])
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        findings.append(Finding(
                            edge.src_rel, edge.line, "include-cycle",
                            "include cycle: " + " -> ".join(cycle)))
                elif state == WHITE:
                    visit(dst)
            stack.pop()
            color[node] = BLACK

        for node in sorted(adjacency):
            if color.get(node, WHITE) == WHITE:
                visit(node)
        return findings

    def _module_cycles(self):
        """Tarjan SCC over the module-contracted graph; a component
        with two or more modules is a layering cycle no single edge
        reveals."""
        module_edges = {}
        examples = {}
        for edge in self.resolved_edges():
            src_mod = module_of(edge.src_rel)
            dst_mod = module_of(edge.dst_rel)
            if src_mod is None or dst_mod is None or src_mod == dst_mod:
                continue
            module_edges.setdefault(src_mod, set()).add(dst_mod)
            examples.setdefault((src_mod, dst_mod), edge)

        index = {}
        lowlink = {}
        on_stack = set()
        stack = []
        counter = [0]
        sccs = []

        def strongconnect(mod):
            index[mod] = lowlink[mod] = counter[0]
            counter[0] += 1
            stack.append(mod)
            on_stack.add(mod)
            for nxt in sorted(module_edges.get(mod, ())):
                if nxt not in index:
                    strongconnect(nxt)
                    lowlink[mod] = min(lowlink[mod], lowlink[nxt])
                elif nxt in on_stack:
                    lowlink[mod] = min(lowlink[mod], index[nxt])
            if lowlink[mod] == index[mod]:
                component = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == mod:
                        break
                sccs.append(sorted(component))

        all_modules = sorted(set(module_edges)
                             | {m for dsts in module_edges.values()
                                for m in dsts})
        for mod in all_modules:
            if mod not in index:
                strongconnect(mod)

        findings = []
        for component in sorted(sccs):
            if len(component) < 2:
                continue
            shown = []
            for src_mod in component:
                for dst_mod in component:
                    edge = examples.get((src_mod, dst_mod))
                    if edge is not None:
                        shown.append("%s -> %s (%s:%d)"
                                     % (src_mod, dst_mod, edge.src_rel,
                                        edge.line))
            anchor = examples.get(
                next((src, dst) for src in component for dst in component
                     if (src, dst) in examples))
            findings.append(Finding(
                anchor.src_rel, anchor.line, "include-cycle",
                "module-level cycle between {%s}: %s"
                % (", ".join(component), "; ".join(shown))))
        return findings
