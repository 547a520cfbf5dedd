"""Determinism rules: seeded randomness, simulated time, frozen config.

The whole reproduction is replayable from a seed: training curves,
fault timelines, serving arrivals.  These rules reject the three ways
that property silently dies — module-level RNG state, wall-clock reads
inside simulated paths, and environment-dependent behaviour outside the
one sanctioned flags module.
"""

from __future__ import annotations

import ast

from . import Rule, dotted_name, register

__all__ = ["UnseededRNG", "WallClockInSimulatedPath", "EnvironRead"]

#: numpy legacy module-level sampling/seeding functions (global state).
_NP_GLOBAL_RNG = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "shuffle", "permutation", "normal", "uniform",
    "standard_normal", "seed", "get_state", "set_state", "beta",
    "binomial", "poisson", "exponential", "gamma", "geometric",
    "lognormal", "multinomial", "zipf",
})

#: stdlib ``random`` module-level functions (also global state).
_STDLIB_RANDOM = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "seed", "gauss", "normalvariate",
    "betavariate", "expovariate", "triangular", "vonmisesvariate",
    "paretovariate", "getrandbits",
})

#: wall-clock reads that must not appear in simulated/numeric paths.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    # ``from datetime import datetime/date`` spellings.
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})

#: ``time`` functions that stay wall-clock reads when bound by a
#: ``from time import ...`` (matched through the import's alias).
_TIME_FUNCTIONS = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns",
})


@register
class UnseededRNG(Rule):
    """RPR001: randomness not flowing through a seeded Generator."""

    rule_id = "RPR001"
    severity = "error"
    title = "unseeded or global-state RNG"
    hint = ("draw from a seeded np.random.Generator (np.random."
            "default_rng(seed)) threaded in from TrainingConfig.rng()")
    rationale = ("global RNG state breaks seed-replay: checkpoints "
                 "cannot capture it and unrelated call-order changes "
                 "shift every downstream draw")

    def check(self, module):
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) == 3 and parts[0] in ("np", "numpy") \
                    and parts[1] == "random" and parts[2] in _NP_GLOBAL_RNG:
                yield node, (f"module-level numpy RNG call "
                             f"`{name}()` uses hidden global state")
            elif name in ("np.random.default_rng",
                          "numpy.random.default_rng") \
                    and not node.args and not node.keywords:
                yield node, ("`default_rng()` without a seed draws "
                             "entropy from the OS; pass an explicit "
                             "seed or SeedSequence")
            elif len(parts) == 2 and parts[0] == "random" \
                    and parts[1] in _STDLIB_RANDOM:
                yield node, (f"stdlib `{name}()` uses the process-global "
                             f"Mersenne Twister")


@register
class WallClockInSimulatedPath(Rule):
    """RPR002: wall-clock reads outside the sanctioned perf profiler."""

    rule_id = "RPR002"
    severity = "error"
    title = "wall-clock read in a simulated path"
    hint = ("use repro.perf.profiler.wall_clock() so real-time reads "
            "stay auditable in one module")
    rationale = ("the cost model runs on simulated seconds; a stray "
                 "perf_counter silently mixes host timing into results "
                 "that must replay bit-identically")

    #: Files allowed to read the wall clock directly: the profiler is
    #: the one sanctioned real-time module, and benchmark scripts
    #: measure the host machine on purpose.
    def _allowed(self, module):
        path = module.path.replace("\\", "/")
        return path.endswith("repro/perf/profiler.py") \
            or module.in_parts("benchmarks")

    def check(self, module):
        if self._allowed(module):
            return
        # Bindings from ``from time import perf_counter [as pc]``: a
        # bare ``pc()`` is still a wall-clock read.
        time_aliases = {}
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _TIME_FUNCTIONS:
                        time_aliases[alias.asname or alias.name] = \
                            alias.name
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name in _WALL_CLOCK:
                yield node, (f"`{name}()` reads the host wall clock "
                             f"outside repro.perf.profiler")
            elif name in time_aliases:
                yield node, (f"`{name}()` (time.{time_aliases[name]}) "
                             f"reads the host wall clock outside "
                             f"repro.perf.profiler")


@register
class EnvironRead(Rule):
    """RPR007: environment reads outside ``perf/flags.py``."""

    rule_id = "RPR007"
    severity = "warning"
    title = "os.environ read outside perf/flags.py"
    hint = ("surface the knob as a PerfFlags field (repro/perf/"
            "flags.py) so every behaviour toggle is visible and "
            "test-overridable in one place")
    rationale = ("hidden environment dependence makes two 'identical' "
                 "runs diverge across machines without any code diff")

    def _allowed(self, module):
        return module.path.replace("\\", "/").endswith("perf/flags.py")

    def check(self, module):
        if self._allowed(module):
            return
        for node in module.nodes:
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name == "os.getenv" or name == "os.environ.get":
                    yield node, f"`{name}(...)` outside perf/flags.py"
            elif isinstance(node, ast.Subscript):
                if dotted_name(node.value) == "os.environ":
                    yield node, "`os.environ[...]` outside perf/flags.py"
