"""A derandomized fuzz of ``cli.main``: every call ends with exit 0, 1
or 2, an exit 2 writes exactly one stderr line, and no exception
escapes ``main``.

The inputs are malformed instance documents and edge lists, and
generated scenes mutated the ways real files go wrong: scaled by 2^30
or 2^60, given rational coordinates, a free vertex moved onto an
obstacle edge, a vertex duplicated, a ring reversed or truncated, and
substituted edge lists trimmed or padded. Only file contents are
malformed; the argument lists are well formed, since argparse's own
usage errors print a usage block. One fixed seed, a few hundred calls.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

from polyspanner.cli import main
from polyspanner.generator import GeneratorConfig, generate
from polyspanner.io import write_edge_list, write_instance
from polyspanner.spanners import GRAPH_NAMES, build_all
from polyspanner.visibility import Graph

SEED = 20261019

BROKEN_INSTANCES = [
    "",
    "{",
    "[]",
    "null",
    "42",
    '{"vertices": 5}',
    '{"vertices": [[0]]}',
    '{"vertices": [[0, 0, 0]]}',
    '{"vertices": [[true, 0]]}',
    '{"vertices": [[null, 0]]}',
    '{"vertices": [["1/0", 0]]}',
    '{"vertices": [["abc", 0]]}',
    '{"vertices": [[1e5000, 0]]}',
    '{"vertices": [["1e99999", 0]]}',
    '{"vertices": [[NaN, 0]]}',
    '{"vertices": [[Infinity, 0]]}',
    '{"vertices": [[0, 0], [1e400, 1], [2, 7]]}',
    '{"vertices": [[-1.7e308, 0], [1.7e308, 1e307], [0, 1.5e308]]}',
    '{"vertices": [[0, 0], [1, 2], [5, 1]], "obstacles": [[0, 1, 7]]}',
    '{"vertices": [[0, 0], [1, 2], [5, 1]], "obstacles": [[0, 1, -1]]}',
    '{"vertices": [[0, 0], [1, 2], [5, 1]], "obstacles": [[0, 1, 1.5]]}',
    '{"vertices": [[0, 0], [1, 2], [5, 1]], "obstacles": [[]]}',
    '{"vertices": [[0, 0], [1, 2], [5, 1]], "obstacles": 5}',
    '{"vertices": [[0, 0], [1, 2], [5, 1]], "obstacles": [[0, 1, 0]]}',
    '{"vertices": [[0, 0], [1, 1], [2, 2], [5, 0]]}',
    '{"vertices": [[0, 0], [10, 0], [3, 7]]}',
    '{"vertices": [], "extra": 1}',
    '{"vertices": []}',
]

BROKEN_EDGE_LISTS = [
    "",
    "x",
    "3",
    "3 1",
    "3 1\n0 0",
    "3 1\n0 5",
    "3 1\n1 0",
    "3 2\n0 1\n0 1",
    "3 1\n0 1\n1 2",
    "-1 0",
    "3 1\n0 -1",
    "3 1\na b",
    "2 1\n0 1",
    "3 0",
]


def _scrambled(rng, text):
    """text with one random slice deleted, duplicated or overwritten."""
    i = rng.randrange(len(text) + 1)
    j = min(len(text), i + rng.randint(1, 8))
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[j:]
    if kind == 1:
        return text[:j] + text[i:]
    junk = "".join(rng.choice('0123456789-/.,[]{}" e') for _ in range(j - i))
    return text[:i] + junk + text[j:]


MUTATIONS = ("scale", "rational", "onto-edge", "duplicate", "reverse", "truncate")


def _mutated(rng, scene, kind):
    """An instance document of scene, which has an obstacle and a free
    vertex, mutated by the named kind."""
    verts = [[int(x), int(y)] for x, y in scene.vertices]
    rings = [list(ring) for ring in scene.obstacles]
    corners = {v for ring in rings for v in ring}
    if kind == "scale":
        k = 2 ** rng.choice([30, 60])
        verts = [[x * k, y * k] for x, y in verts]
    elif kind == "rational":
        q = rng.choice([3, 7, 10, 1024, 3**40])
        verts = [[str(Fraction(x, q)), str(Fraction(y, q))] for x, y in verts]
    elif kind == "onto-edge":
        ring = rng.choice(rings)
        i = rng.randrange(len(ring))
        (ax, ay), (bx, by) = verts[ring[i]], verts[ring[(i + 1) % len(ring)]]
        free = rng.choice([v for v in range(scene.n) if v not in corners])
        verts[free] = [str(Fraction(ax + bx, 2)), str(Fraction(ay + by, 2))]
    elif kind == "duplicate":
        i, j = rng.sample(range(scene.n), 2)
        verts[j] = list(verts[i])
    elif kind == "reverse":
        rings[0].reverse()
    else:
        rings[0] = rings[0][: rng.randint(1, len(rings[0]) - 1)]
    return json.dumps({"vertices": verts, "obstacles": rings})


def _edge_lists(rng, graphs):
    """(graph name, edge list text): honest, trimmed or padded."""
    name = rng.choice(GRAPH_NAMES)
    g = graphs[name]
    lines = write_edge_list(g).splitlines()
    n, edges = g.n, lines[1:]
    kind = rng.randrange(4)
    if kind == 1 and edges:
        edges = rng.sample(edges, rng.randrange(len(edges)))
    elif kind == 2:
        edges = edges + [f"{rng.randrange(n)} {rng.randrange(n)}" for _ in range(rng.randint(1, 3))]
    elif kind == 3:
        return name, _scrambled(rng, "\n".join(lines) + "\n")
    return name, "\n".join([f"{n} {len(edges)}"] + sorted(set(edges))) + "\n"


def _calls(rng, tmp_path):
    """The argument lists of the fuzz, with their files written."""
    files = iter(range(10**6))

    def put(text):
        path = tmp_path / f"f{next(files)}"
        path.write_text(text)
        return str(path)

    out = str(tmp_path / "out")
    for text in BROKEN_INSTANCES:
        inst = put(text)
        yield ["verify", "--in", inst]
        yield ["build", "--graph", rng.choice(GRAPH_NAMES), "--in", inst, "--out", out]
        yield [rng.choice(["render", "perturb"]), "--in", inst, "--out", out]
    good = put(write_instance(generate(GeneratorConfig(n_points=8, seed=1))))
    for text in BROKEN_EDGE_LISTS:
        yield ["verify", "--in", good, "--graph", rng.choice(GRAPH_NAMES), "--edges", put(text)]
    for _ in range(20):
        n, obstacles = rng.choice([-1, 0, 1, 6, 14]), rng.choice([-1, 0, 1, 3])
        size, extent = rng.choice([2, 3, 5]), rng.choice([10, 1000, 10**6])
        yield ["gen", "--n", str(n), "--obstacles", str(obstacles), "--size", str(size),
               "--extent", str(extent), "--seed", str(rng.randrange(100)), "--out", out]
    for seed in range(36):
        obstacles = 1 + seed % 2
        scene = generate(GeneratorConfig(n_points=rng.randint(6, 8) * obstacles, n_obstacles=obstacles, seed=seed))
        text = write_instance(scene)
        yield ["verify", "--in", put(_scrambled(rng, text))]
        inst = put(_mutated(rng, scene, MUTATIONS[seed % len(MUTATIONS)]))
        for name in ("vis", rng.choice(GRAPH_NAMES[1:])):
            yield ["build", "--graph", name, "--in", inst, "--out", out]
        yield ["verify", "--in", inst]
        yield [rng.choice(["render", "perturb"]), "--in", inst, "--out", out]
        graphs = build_all(scene)[0]
        inst = put(text)
        for _ in range(3):
            name, edges = _edge_lists(rng, graphs)
            yield ["verify", "--in", inst, "--graph", name, "--edges", put(edges)]
        # Every pair as vis: the per-edge bound meets the pairs that
        # lie inside an obstacle wedge.
        every = Graph(scene.n, combinations(range(scene.n), 2))
        yield ["verify", "--in", inst, "--graph", "vis", "--edges", put(write_edge_list(every))]


def test_every_call_exits_0_1_or_2_with_one_error_line(tmp_path, capsys):
    rng = random.Random(SEED)
    exits = {0: 0, 1: 0, 2: 0}
    in_wedge = 0
    for argv in _calls(rng, tmp_path):
        rc = main(argv)
        stdout, stderr = capsys.readouterr()
        assert rc in exits, argv
        exits[rc] += 1
        if rc == 2:
            assert len(stderr.splitlines()) == 1, (argv, stderr)
            assert stderr.startswith(f"{argv[0]}: "), (argv, stderr)
        else:
            assert stderr == "", (argv, stderr)
        if rc == 1:
            assert argv[0] == "verify" and "FAIL " in stdout, argv
        in_wedge += "FAIL per-edge-bound(ginf|vis): vertex" in stdout
    assert sum(exits.values()) > 300
    assert min(exits.values()) > 20, exits
    assert in_wedge > 5
