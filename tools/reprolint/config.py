"""Declarative per-module configuration for the reprolint checkers.

Everything a checker needs to know about *this* repository lives here —
the checkers themselves are generic AST rules.  Paths are repo-relative
posix strings so baseline keys and reports are machine-independent.
"""

from __future__ import annotations

from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

GRAPH = "src/repro/graph"
GNN = "src/repro/gnn"
SYSTEM = "src/repro/system"
RUNTIME = "src/repro/runtime"
SERVING = "src/repro/serving"
CORE = "src/repro/core"

# ----------------------------------------------------------------------
# layering: module -> in-repo import allowlist.
# ----------------------------------------------------------------------
# The standard library is always allowed; an entry allows the module and
# any of its submodules.  Imports under ``if TYPE_CHECKING:`` are ignored
# (they never execute, so they cannot re-couple layers at runtime).
#
# The tiering this encodes (lowest first):
#   messages (wire format)  ->  transport  ->  knobs (the configs the
#   system layer consumes)  ->  scheduler (no engine, no compute)  ->
#   runtime kernels/arena (pure array code)  ->  plan / quantize
#   (compiled runtime)  ->  engine (system tier)  ->  serving (top).
#   Nothing below the serving tier may import it — the known, justified
#   exception (the shard worker bootstrap in runtime/shard.py rebuilds a
#   serving repository by design) is grandfathered in baseline.json
#   rather than allowed here.  The kNN ranking (graph/knn.py) sits below
#   the runtime kernels: eager and compiled kNN share its one selection
#   loop, so the runtime imports it and it never imports the runtime.
#   It also owns the two forms of a k-regular topology (the ``(N, k)``
#   neighbour table and its edge list); the eager operations
#   (gnn/operations.py) take the table from it, never from the runtime
#   or the executor above them.
#   The executor (core/executor.py) builds the engine callables that the
#   serving builders hand out, so it sits below the serving tier too: it
#   takes a ``RuntimeConfig`` as an argument and never imports it.
LAYERING_RULES = {
    f"{GRAPH}/knn.py": {"numpy"},
    f"{GNN}/operations.py": {"numpy", "repro.nn", "repro.graph"},
    f"{CORE}/executor.py": {"numpy", "repro.core", "repro.gnn", "repro.graph",
                            "repro.nn", "repro.runtime"},
    f"{SYSTEM}/messages.py": {"numpy"},
    f"{SYSTEM}/transport.py": {"repro.system.messages"},
    f"{SYSTEM}/knobs.py": {"numpy", "repro.system.messages",
                           "repro.system.transport"},
    f"{SYSTEM}/scheduler.py": {"repro.system.knobs", "repro.system.messages"},
    f"{SYSTEM}/engine.py": {"numpy", "repro.core", "repro.system"},
    f"{RUNTIME}/arena.py": {"numpy"},
    f"{RUNTIME}/kernels.py": {"numpy", "repro.graph"},
    f"{RUNTIME}/quantize.py": {"numpy", "repro.graph", "repro.runtime"},
    f"{RUNTIME}/plan.py": {"numpy", "repro.gnn", "repro.graph", "repro.nn",
                           "repro.runtime"},
    f"{RUNTIME}/shard.py": {"numpy", "repro.core", "repro.runtime",
                            "repro.system"},
    f"{RUNTIME}/node.py": {"repro.runtime", "repro.system.messages"},
    f"{SERVING}/config.py": {"numpy", "repro.core", "repro.runtime",
                             "repro.system"},
    f"{SERVING}/builders.py": {"repro.core", "repro.serving"},
    f"{SERVING}/repository.py": {"repro.core", "repro.serving"},
    f"{SERVING}/workers.py": {"repro.core", "repro.runtime", "repro.system",
                              "repro.serving"},
    f"{SERVING}/sharding.py": {"repro.core", "repro.runtime", "repro.system",
                               "repro.serving"},
    f"{SERVING}/cluster.py": {"repro.core", "repro.runtime", "repro.system",
                              "repro.serving"},
    f"{SERVING}/app.py": {"repro.core", "repro.system", "repro.serving"},
}

# ----------------------------------------------------------------------
# dtype-discipline: modules whose array arithmetic must not mix in bare
# Python float scalars (the NEP-50 float64-upcast bug class from PR 8).
# ----------------------------------------------------------------------
DTYPE_TARGETS = (
    f"{RUNTIME}/kernels.py",
    f"{RUNTIME}/plan.py",
    f"{RUNTIME}/quantize.py",
)

#: numpy callables where a bare float argument silently sets the result
#: dtype (ufunc-style broadcasting against whatever array rides along).
DTYPE_UFUNCS = frozenset({
    "maximum", "minimum", "clip", "where", "add", "subtract", "multiply",
    "divide", "true_divide", "power", "fmax", "fmin", "hypot", "mod",
    "remainder", "copysign", "nextafter", "full", "full_like",
})

#: Wrappers that make a scalar's dtype explicit — literals inside these
#: calls are the *approved* idiom, never flagged.
DTYPE_CASTS = frozenset({
    "float32", "float64", "float16", "int8", "int16", "int32", "int64",
    "uint8", "uint16", "uint32", "uint64", "type", "dtype",
})

# ----------------------------------------------------------------------
# lock-discipline: threaded modules whose classes guard shared state with
# ``with self._lock:`` blocks.
# ----------------------------------------------------------------------
LOCK_TARGETS = (
    f"{SYSTEM}/engine.py",
    f"{SYSTEM}/scheduler.py",
    f"{SERVING}/workers.py",
    f"{SERVING}/sharding.py",
    f"{SERVING}/cluster.py",
    f"{SERVING}/repository.py",
)

# ----------------------------------------------------------------------
# message-kinds: the wire-constant module and every module that speaks
# the wire protocol (produces or dispatches Message kinds).
# ----------------------------------------------------------------------
KIND_CONSTANTS_MODULE = f"{SYSTEM}/messages.py"

KIND_SCOPE = (
    f"{SYSTEM}/engine.py",
    f"{SYSTEM}/transport.py",
    f"{SYSTEM}/scheduler.py",
    f"{RUNTIME}/shard.py",
    f"{RUNTIME}/node.py",
    f"{SERVING}/workers.py",
    f"{SERVING}/sharding.py",
    f"{SERVING}/cluster.py",
    f"{SERVING}/app.py",
)

# ----------------------------------------------------------------------
# arena-aliasing: modules whose functions take buffers from a BufferArena
# and must never return them uncopied.
# ----------------------------------------------------------------------
ARENA_TARGETS = (
    f"{RUNTIME}/plan.py",
)

# ----------------------------------------------------------------------
# take-mode: modules where a ``take`` into ``out=`` must name its mode
# (the default "raise" gathers through a temporary of out's size).
# ----------------------------------------------------------------------
TAKE_TARGET_DIR = RUNTIME

# ----------------------------------------------------------------------
# sleep-discipline: test files must synchronize on conditions
# (``conftest.wait_until``), not on wall-clock naps.
# ----------------------------------------------------------------------
SLEEP_TARGET_DIR = "tests"

#: Files allowed to call ``time.sleep`` directly: the synchronization
#: helpers themselves (wait_until's poll nap) and chaosnet's clock
#: internals (the RealClock fallback and the waiter wake quantum).
SLEEP_EXEMPT_FILES = frozenset({
    "tests/conftest.py",
    "tests/chaosnet.py",
})

#: Directories under the target skipped entirely — known-bad checker
#: fixtures are *supposed* to contain the anti-pattern.
SLEEP_EXEMPT_DIRS = frozenset({
    "tests/reprolint_fixtures",
})

# ----------------------------------------------------------------------
# results-hygiene: committed benchmark outputs are read-only for tests —
# nothing under the scan dir may open a path inside the protected
# directory (given as its trailing path components) for writing.
# ----------------------------------------------------------------------
RESULTS_SCAN_DIR = "tests"
RESULTS_PROTECTED_DIR = ("benchmarks", "results")
RESULTS_EXEMPT_DIRS = SLEEP_EXEMPT_DIRS  # the known-bad checker fixtures
