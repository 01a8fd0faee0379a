"""Workload definitions and the digests that pin every output.

Each workload is a fixed list of slots. A slot fixes the scene size
(vertex count, obstacle count, points sampled per obstacle); the run
seed picks one of ``VARIANTS`` generator seeds per slot. The size mix is
therefore the same for every run seed and only the geometry changes,
which keeps run-to-run spread low while every seed still gets its own
inputs. ``digests.json`` holds the digest of the instance and of each of
the five edge sets for every (slot, variant) scene, recorded by
``make_digests.py`` after the scene passed every check and its ``ginf``
matched the brute-force oracle.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
GRAPHS = ("vis", "ginf", "g15", "g10", "g7")
SIZES = ("full", "tiny")
VARIANTS = {"full": 8, "tiny": 2}


@dataclass(frozen=True)
class Slot:
    n: int
    obstacles: int
    obstacle_size: int = 5


def _uniform(count, n, k, size=5):
    return [Slot(n, k, size)] * count


def _tier1(count, span):
    # The tier-1 acceptance formula, n = 10 + i % span, up to 5 obstacles.
    out = []
    for i in range(count):
        n = 10 + i % span
        out.append(Slot(n, min(i % 6, (n - 6) // 4, 5)))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "verify", "build" or "cli"
    why: str
    seed_base: int
    slots: dict  # size -> list of Slot

    def scenes(self, seed: int, size: str = "full"):
        """(slot index, Slot, generator seed) for every slot; the run
        seed picks the variant of each slot."""
        rng = random.Random(f"{self.name}/{seed}")
        variants = VARIANTS[size]
        out = []
        for i, slot in enumerate(self.slots[size]):
            v = rng.randrange(variants)
            out.append((i, slot, self.seed_base + i * variants + v))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-obstacles",
            "verify",
            "run_verification with obstacles: the polygon predicates in geom "
            "dominate through the oracle and vis, where integer predicates show",
            10_000,
            {"full": _uniform(30, 22, 4), "tiny": _uniform(20, 12, 2)},
        ),
        Workload(
            "verify-open",
            "verify",
            "run_verification without obstacles: zero polygon tests, the "
            "per-edge bound, planarity and APSP do the work",
            20_000,
            {"full": _uniform(30, 30, 0), "tiny": _uniform(20, 12, 0)},
        ),
        Workload(
            "build-dense",
            "build",
            "the build --graph g7 chain on obstacle-dense scenes without "
            "verify: vis dominates, oracle and per-edge changes do not reach it",
            30_000,
            {"full": _uniform(30, 42, 5, 8), "tiny": _uniform(20, 16, 2, 6)},
        ),
        Workload(
            "cli-small",
            "cli",
            "in-process CLI gen, build g7, verify on the tier-1 size mix with a "
            "dropped-edge negative control; fixed per-scene, io and cli costs",
            40_000,
            {"full": _tier1(26, 13), "tiny": _tier1(20, 6)},
        ),
    )
}


def scene_key(slot: Slot, gen_seed: int) -> str:
    return f"{slot.n}-{slot.obstacles}-{slot.obstacle_size}-{gen_seed}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def edge_digest(n: int, edges) -> str:
    """Digest of an undirected edge set, independent of edge order."""
    lines = [f"{n}"] + [f"{min(e)} {max(e)}" for e in sorted(edges, key=lambda e: (min(e), max(e)))]
    return _sha("\n".join(lines))


def edge_list_digest(text: str) -> str:
    """Digest of an edge-list file as written by ``build``."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n = int(rows[0][0])
    return edge_digest(n, [(int(u), int(v)) for u, v in rows[1:]])


def instance_digest(text: str) -> str:
    """Digest of an instance file's content, independent of formatting."""
    doc = json.loads(text, parse_float=Fraction)
    canon = {
        "vertices": [[str(Fraction(c)) for c in p] for p in doc["vertices"]],
        "obstacles": doc.get("obstacles", []),
    }
    return _sha(json.dumps(canon, sort_keys=True))


def load_digests(path: Path = DIGESTS) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
