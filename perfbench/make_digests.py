"""Record the reference digests in ``digests.json``.

Run from the repository root::

    python3 perfbench/make_digests.py

For every scene a workload can draw (every slot and variant, both
sizes) it generates the scene, requires every ``run_verification``
check to pass (the oracle-equivalence check included, so the stored
``ginf`` is the oracle's), and stores the digest of the instance text
and of the five edge sets, for every workload at once. The digests are
meant to be recorded once, at the commit that defined the benchmark, and
then left alone: the graphs are promised to stay the same.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import DIGESTS, SIZES, VARIANTS, WORKLOADS, edge_digest, instance_digest, scene_key
from run import import_program


def main() -> int:
    ps = import_program()
    from polyspanner.generator import GeneratorConfig, generate
    from polyspanner.io import write_instance
    from polyspanner.verify import build_all, run_verification

    digests = {}
    for name in sorted(WORKLOADS):
        w = WORKLOADS[name]
        t0 = time.perf_counter()
        for size in SIZES:
            for i, slot in enumerate(w.slots[size]):
                for v in range(VARIANTS[size]):
                    gen_seed = w.seed_base + i * VARIANTS[size] + v
                    scene = generate(GeneratorConfig(slot.n, slot.obstacles, slot.obstacle_size, seed=gen_seed))
                    failed = [o.line() for o in run_verification(scene) if not o.ok]
                    if failed:
                        raise SystemExit(f"{name} slot {i} seed {gen_seed}: {failed}")
                    graphs, _ = build_all(scene)
                    entry = {"scene": instance_digest(write_instance(scene))}
                    entry.update({g: edge_digest(scene.n, graphs[g].edges) for g in graphs})
                    digests[scene_key(slot, gen_seed)] = entry
        print(f"{name}: done in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"{len(digests)} scenes in {DIGESTS.name} (polyspanner from {ps.__file__})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
