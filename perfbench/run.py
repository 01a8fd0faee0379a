"""polyspanner benchmark: one workload per process, closed loop, one caller.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-obstacles --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run imports the package from ``src/`` of the checkout, builds its
scenes from the seed (set-up), then runs passes over the scenes until
``--seconds`` are used up; every pass runs each scene's operation once.
Every output is checked: each ``run_verification`` outcome must pass
and every edge set must match its stored digest. A failed check, an
escaped exception or an unexpected exit code counts as a failed
operation and never stops the run.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics. Their times are measured seconds scaled by
the machine speed of the moment, read from ``reference_loop()`` timed
before every operation and around input generation; at the nominal
speed the scale is 1. With ``--trace 1`` every operation runs untraced and then
again traced, and the line holds the per-layer metrics (unscaled
seconds and exact counts) of the traced runs; the spans are written to
``perfbench/.out/``. Set-up is timed on untraced runs only.
``--workload all`` runs every workload both ways in child processes and
prints them all.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from spans import TIMED_LAYERS, Tracer
from workloads import GRAPHS, WORKLOADS, edge_digest, edge_list_digest, instance_digest, load_digests, scene_key

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / ".out"
IMPORT_REPEATS = 40
SETUP_REPEATS = 3
# Median seconds of one reference_loop() on the machine the benchmark was
# defined on (2-core Intel Xeon VM at 2.1 GHz, Python 3.11.7).
REF_NOMINAL_S = 0.0051
MIN_PASSES = 2
# op_tail_s is the highest percentile that has this many samples beyond it
# in a run of MIN_PASSES passes; longer runs read the same percentile.
TAIL_BEYOND = 10
CONTROL_EVERY = 10  # cli-small: every tenth scene also runs the negative control

# Run in a fresh interpreter: prints the median scaled seconds to load the
# package's modules, dropping them from sys.modules before each load. The
# first load, which also pulls in numpy, scipy and the standard library
# and fills the import caches, is left out: on a shared machine its time
# swings by 30% and no change to this repository moves it.
_IMPORT_SNIPPET = """\
import statistics, sys
sys.path.insert(0, sys.argv[1])
from run import IMPORT_REPEATS, REF_NOMINAL_S, _ref_seconds, _seconds

def load():
    for name in [m for m in sys.modules if m.split(".")[0] == "polyspanner"]:
        del sys.modules[name]
    import polyspanner.cli, polyspanner.verify

load()
_ref_seconds()
print(statistics.median(
    _seconds(load) * REF_NOMINAL_S / _ref_seconds() for _ in range(IMPORT_REPEATS)))
"""


class Pass(NamedTuple):
    wall: float  # seconds for the whole pass
    plain: dict  # slot -> seconds of the untraced operation
    traced: dict  # slot -> seconds of the traced operation (traced runs)
    tracer: Optional[Tracer]
    scale: float  # REF_NOMINAL_S over the pass's median reference-loop time


def reference_loop() -> int:
    """Fixed exact-arithmetic work that shares no code with the program.

    Timed before every operation, it measures how fast the machine runs at
    that moment. On a shared virtual machine the same Python work takes up
    to 40% longer for stretches of 10 to 20 seconds; the end-to-end times
    are scaled by this yardstick so that such stretches do not read as
    changes of the program.
    """
    pts = [(Fraction(i * 7919 % 1000, 7), Fraction(i * 104729 % 1000, 11)) for i in range(60)]
    seen = {}
    for i in range(60):
        a, b, c = pts[i], pts[(i + 1) % 60], pts[(i + 7) % 60]
        seen[(i, (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) > 0)] = i
    total = 0
    for i in range(40_000):
        total += (i * i) % 7
    return total + len(seen)


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def import_program():
    """Import polyspanner from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "polyspanner" / "__init__.py").is_file():
        raise BenchError(f"no polyspanner sources under {src}")
    sys.path.insert(0, str(src))
    import polyspanner

    if Path(polyspanner.__file__).resolve().parent != src / "polyspanner":
        raise BenchError(f"polyspanner imported from {polyspanner.__file__}, not {src}")
    return polyspanner


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _ref_seconds() -> float:
    """Seconds of one reference_loop() with the cyclic collector off, so
    that the size of the program's heap does not enter the yardstick."""
    gc.disable()
    try:
        return _seconds(reference_loop)
    finally:
        gc.enable()


def _import_seconds() -> float:
    """Scaled seconds to load the package's modules."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_SNIPPET, str(HERE)],
        cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Run:
    """One workload at one seed: set-up, passes, checks and metrics."""

    def __init__(self, workload, seed, size="full", digests=None, drop_g15_edge=False):
        import polyspanner.cli as cli
        import polyspanner.generator as generator
        import polyspanner.io as pio
        import polyspanner.spanners as spanners
        import polyspanner.verify as verify
        import polyspanner.visibility as visibility

        self.ps = {"cli": cli, "generator": generator, "io": pio, "spanners": spanners,
                   "verify": verify, "visibility": visibility}
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.scenes = self.w.scenes(seed, size)
        try:
            self.digests = load_digests() if digests is None else digests
        except (OSError, ValueError) as exc:
            raise BenchError(f"cannot read the stored digests: {exc}")
        # Negative control: substitute a g15 list missing one g10 edge
        # into the verification that must pass, so every scene fails.
        self.drop_g15_edge = drop_g15_edge
        self.work = OUT / f"work-{workload}-{seed}"
        self.tracer = None
        self.failures = []  # (pass index, slot, message)

    # --- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Scaled seconds: package import plus median input generation."""
        imports = _import_seconds()
        refs = [_ref_seconds() for _ in range(SETUP_REPEATS)]
        inputs = statistics.median(_seconds(self._make_inputs) for _ in range(SETUP_REPEATS))
        refs += [_ref_seconds() for _ in range(SETUP_REPEATS)]
        return imports + inputs * REF_NOMINAL_S / statistics.median(refs)

    def _make_inputs(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs, self.input_errors = {}, {}
        if self.w.kind == "cli":
            return  # the operation generates its own scene through the CLI
        for i, slot, gen_seed in self.scenes:
            try:
                scene, text = self._generate(slot, gen_seed)
            except Exception as exc:  # the slot's operations fail; the run goes on
                self.input_errors[i] = f"generating the scene raised {type(exc).__name__}: {exc}"
                continue
            (self.work / f"s{i}.json").write_text(text)
            self.inputs[i] = (scene, text)

    def _generate(self, slot, gen_seed):
        """The scene and its instance text, as ``gen`` writes it."""
        gen = self.ps["generator"]
        scene = gen.generate(gen.GeneratorConfig(slot.n, slot.obstacles, slot.obstacle_size, seed=gen_seed))
        return scene, self.ps["io"].write_instance(scene)

    # --- operations ------------------------------------------------------------

    def _expected(self, slot, gen_seed) -> dict:
        entry = self.digests.get(scene_key(slot, gen_seed))
        if entry is None:
            raise KeyError(f"no stored digest for scene {scene_key(slot, gen_seed)}")
        return entry

    def _dropped_g15(self, scene):
        """A g15 edge list with one g10 edge removed."""
        sp = self.ps["spanners"]
        vis = self.ps["visibility"].visibility_graph(scene)
        ginf = sp.build_g_infinity(scene, vis)
        g15, g10 = sp.build_g15(scene, ginf), sp.build_g10(scene, ginf)
        victim = min(g10.edges)
        return type(g15)(scene.n, g15.edges - {victim})

    def op(self, i, slot, gen_seed):
        """Run one scene's operation; returns what the check needs."""
        if self.w.kind == "verify":
            scene = self.inputs[i][0]
            subs = {"g15": self.sabotage[i]} if self.drop_g15_edge else None
            return self.ps["verify"].run_verification(scene, subs)
        if self.w.kind == "build":
            scene = self.inputs[i][0]
            sp, vis_mod = self.ps["spanners"], self.ps["visibility"]
            vis = vis_mod.visibility_graph(scene)
            ginf = sp.build_g_infinity(scene, vis)
            g15 = sp.build_g15(scene, ginf)
            g10 = sp.build_g10(scene, ginf)
            g7 = sp.build_g7(scene, ginf, g10)
            return {"vis": vis, "ginf": ginf, "g15": g15, "g10": g10, "g7": g7}
        return self._cli_round_trip(i, slot, gen_seed)

    def _cli(self, layer, argv):
        out = io.StringIO()
        main = self.ps["cli"].main
        with contextlib.redirect_stdout(out):
            rc = self.tracer.span(layer, main, argv) if self.tracer else main(argv)
        return rc, out.getvalue()

    def _cli_round_trip(self, i, slot, gen_seed):
        base = self.work / f"s{i}"
        inst, g7 = f"{base}.json", f"{base}.g7.edges"
        res = {}
        res["gen"] = self._cli("cli.gen", ["gen", "--n", str(slot.n), "--obstacles", str(slot.obstacles),
                                           "--size", str(slot.obstacle_size), "--seed", str(gen_seed),
                                           "--out", inst])
        res["build"] = self._cli("cli.build", ["build", "--graph", "g7", "--in", inst, "--out", g7])
        verify = ["verify", "--in", inst]
        control = i % CONTROL_EVERY == 0
        if control or self.drop_g15_edge:
            g15, g10 = f"{base}.g15.edges", f"{base}.g10.edges"
            res["build15"] = self._cli("cli.build", ["build", "--graph", "g15", "--in", inst, "--out", g15])
            res["build10"] = self._cli("cli.build", ["build", "--graph", "g10", "--in", inst, "--out", g10])
            g15_lines = Path(g15).read_text().splitlines()
            victim = Path(g10).read_text().splitlines()[1]
            kept = [line for line in g15_lines[1:] if line != victim]
            n = g15_lines[0].split()[0]
            dropped = f"{base}.g15-dropped.edges"
            Path(dropped).write_text("\n".join([f"{n} {len(kept)}"] + kept) + "\n")
            if self.drop_g15_edge:
                verify += ["--graph", "g15", "--edges", dropped]
            if control:
                if self.tracer:
                    self.tracer.scene = f"{i}/control"
                res["control"] = self._cli("cli.verify", ["verify", "--in", inst, "--graph", "g15", "--edges", dropped])
                if self.tracer:
                    self.tracer.scene = str(i)
        res["verify"] = self._cli("cli.verify", verify)
        res["files"] = (Path(inst).read_text(), Path(g7).read_text())
        return res

    def check(self, i, slot, gen_seed, result):
        """Error message for a wrong output, or None."""
        if self.w.kind == "verify":
            bad = [o.line() for o in result if not o.ok]
            return bad[0] if bad else None
        expected = self._expected(slot, gen_seed)
        if self.w.kind == "build":
            n = self.inputs[i][0].n
            for g in GRAPHS:
                if edge_digest(n, result[g].edges) != expected[g]:
                    return f"{g} edge set differs from its stored digest"
            return None
        for step in ("gen", "build", "build15", "build10"):
            if step in result and result[step][0] != 0:
                return f"cli {step} exited {result[step][0]}"
        rc, text = result["verify"]
        lines = text.splitlines()
        if rc != 0 or not lines or any(not line.startswith("PASS ") for line in lines):
            return f"cli verify exited {rc}: {next((x for x in lines if not x.startswith('PASS ')), '')}"
        if "control" in result:
            rc, text = result["control"]
            if rc != 1 or "FAIL subgraph-chain" not in text:
                return f"negative control: verify exited {rc} without naming subgraph-chain"
        inst_text, g7_text = result["files"]
        if instance_digest(inst_text) != expected["scene"]:
            return "generated instance differs from its stored digest"
        if edge_list_digest(g7_text) != expected["g7"]:
            return "g7 edge list differs from its stored digest"
        return None

    def gate(self) -> None:
        """Checks that need no timing: the generated instances and, where
        the operation does not compare them itself, the five edge sets of
        each scene."""
        verify = self.ps["verify"]
        for i, slot, gen_seed in self.scenes:
            try:
                if i in self.input_errors:
                    raise RuntimeError(self.input_errors[i])
                expected = self._expected(slot, gen_seed)
                # cli-small's operation generates its scene through the CLI.
                scene, text = self._generate(slot, gen_seed) if self.w.kind == "cli" else self.inputs[i]
                if instance_digest(text) != expected["scene"]:
                    raise ValueError("generated instance differs from its stored digest")
                if self.w.kind != "build":
                    graphs, _ = verify.build_all(scene)
                    for g in GRAPHS:
                        if edge_digest(scene.n, graphs[g].edges) != expected[g]:
                            raise ValueError(f"{g} edge set differs from its stored digest")
            except Exception as exc:  # a wrong output is recorded, never fatal
                self.failures.append(("gate", i, f"{type(exc).__name__}: {exc}"))
                self.gate_failed.add(i)

    # --- passes ------------------------------------------------------------------

    def _attempt(self, index, i, slot, gen_seed) -> float:
        """Run and check one operation; returns its seconds."""
        t0 = time.perf_counter()
        try:
            result, error = self.op(i, slot, gen_seed), None
        except Exception:  # an escaped exception is a failed operation
            result, error = None, traceback.format_exc().strip().splitlines()[-1]
        seconds = time.perf_counter() - t0
        if error is None:
            try:
                error = self.check(i, slot, gen_seed, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None or i in self.gate_failed:
            self.failed += 1
            if error is not None:
                self.failures.append((index, i, error))
        return seconds

    def one_pass(self, index, trace) -> Pass:
        """Every scene once. When tracing, each scene runs again right after
        under the tracer, so both timings see the same machine state."""
        tracer = Tracer() if trace else None
        plain, traced, refs = {}, {}, []
        t_pass = time.perf_counter()
        for i, slot, gen_seed in self.scenes:
            refs.append(_ref_seconds())
            plain[i] = self._attempt(index, i, slot, gen_seed)
            if tracer:
                tracer.scene = str(i)
                self.tracer = tracer
                tracer.install()
                try:
                    traced[i] = self._attempt(index, i, slot, gen_seed)
                finally:
                    tracer.uninstall()
                    self.tracer = None
        scale = REF_NOMINAL_S / statistics.median(refs)
        return Pass(time.perf_counter() - t_pass, plain, traced, tracer, scale)

    def measure(self, seconds, trace):
        """Passes until another one would overrun ``seconds``; at least
        MIN_PASSES untraced, which op_tail_s needs, and one traced."""
        self.attempted = self.failed = 0
        self.gate_failed = set()
        if self.drop_g15_edge and self.w.kind == "verify":
            self.sabotage = {i: self._dropped_g15(self.inputs[i][0]) for i, _, _ in self.scenes}
        self.gate()
        with contextlib.suppress(Exception):  # a failure here recurs, and counts, in the passes
            self.op(*self.scenes[0])  # warm-up: lazy imports and first-call costs
        passes = []
        t_start = time.perf_counter()
        while True:
            passes.append(self.one_pass(len(passes), trace))
            elapsed = time.perf_counter() - t_start
            enough = len(passes) >= (1 if trace else MIN_PASSES)
            if enough and elapsed + statistics.median(p.wall for p in passes) > seconds:
                return passes

    # --- metrics -------------------------------------------------------------------

    def end_to_end(self, passes, setup_s):
        per_slot = [statistics.median(p.plain[i] * p.scale for p in passes) for i, _, _ in self.scenes]
        samples = sorted(t * p.scale for p in passes for t in p.plain.values())
        k, count = len(per_slot), len(samples)
        m = {
            "wall_s": (statistics.median(sum(p.plain.values()) * p.scale for p in passes), "s"),
            "op_p50_s": (statistics.median(per_slot), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        scales = ", ".join(f"{p.scale:.3f}" for p in passes)
        notes = {
            "wall_s": f"median of {len(passes)} passes over {k} scenes; times scaled by {scales}",
            "op_p50_s": f"median of {k} per-scene medians over {len(passes)} passes",
            "setup_s": f"median of {IMPORT_REPEATS} package loads + median of {SETUP_REPEATS} input rounds",
        }
        # Percentile num/den, read as the nearest rank in integers.
        num, den = MIN_PASSES * k - TAIL_BEYOND, MIN_PASSES * k
        if 2 * num >= den:
            rank = -(-count * num // den) - 1
            m["op_tail_s"] = (samples[rank], "s")
            notes["op_tail_s"] = (f"p{100 * num / den:.1f} of {count} per-operation samples, "
                                  f"{count - rank - 1} beyond")
        return m, notes

    def per_layer(self, passes):
        selfs = [p.tracer.self_times() for p in passes]
        first = passes[0].tracer
        counts = first.counts()
        m = {f"{layer}_s": (statistics.median(s.get(layer, 0.0) for s in selfs), "s") for layer in TIMED_LAYERS}
        pairs = counts.get("vis_pairs", 0)
        m.update({
            "visibility.edges": (counts.get("vis_edges", 0), "count"),
            "visibility.visible_frac": (counts.get("vis_edges", 0) / pairs if pairs else 0.0, "ratio"),
            "geom.polygon_tests": (first.polygon_tests, "count"),
            "verify.checks_failed": (counts.get("checks_failed", 0), "count"),
            "verify.worst_stretch_fill": (counts.get("worst_stretch_fill", 0.0), "ratio"),
            "trace.overhead_frac": (
                sum(sum(p.traced.values()) for p in passes) / sum(sum(p.plain.values()) for p in passes) - 1,
                "ratio"),
            "failed_frac": (self.failed / self.attempted, "ratio"),
        })
        for g in ("ginf", "g15", "g10", "g7"):
            m[f"spanners.{g}_edges"] = (counts.get(f"{g}_edges", 0), "count")
        for g in ("g15", "g10", "g7"):
            m[f"spanners.{g}_max_degree"] = (counts.get(f"{g}_max_degree", 0), "count")
        for kind in ("absorbed", "structural", "removed_xw", "uncharged_xw"):
            m[f"spanners.g7_{kind}"] = (counts.get(f"g7_{kind}", 0), "count")
        for scenario in "ABCD":
            m[f"spanners.charges_{scenario}"] = (counts.get(f"charges_{scenario}", 0), "count")
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{self.w.name}-{self.seed}.jsonl", "w", encoding="utf-8") as fh:
            for index, p in enumerate(passes):
                p.tracer.dump(fh, index)
        return m


def run_one(workload, seed, seconds, trace, size="full", digests=None, drop_g15_edge=False):
    """Set up and measure one workload; returns the result object."""
    run = Run(workload, seed, size, digests, drop_g15_edge)
    if trace:
        run._make_inputs()
        passes = run.measure(seconds, trace)
        metrics, notes = run.per_layer(passes), {}
    else:
        setup_s = run.setup()
        passes = run.measure(seconds, trace)
        metrics, notes = run.end_to_end(passes, setup_s)
    shutil.rmtree(run.work, ignore_errors=True)
    for where, slot, message in run.failures[:5]:
        print(f"FAILED pass {where} scene {slot}: {message}", file=sys.stderr)
    print(f"# {workload} seed {seed} trace {trace}: {run.attempted} operations, {run.failed} failed "
          f"(failed_frac {run.failed / run.attempted:g}); pass seconds "
          + ", ".join(f"{p.wall:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"#   {name:32s} {value:>14.6g} {unit}{note}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise BenchError(f"{name} trace {trace} exited {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for metric, value in res["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="polyspanner benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        if args.workload == "all":
            result = run_all(args.seed, args.seconds)
        else:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
