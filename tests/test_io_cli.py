import argparse
import json
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from tests.conftest import fixture_text, load_scene
from tests.reference_visibility import visible

from polyspanner import cli, scene as scene_module, spanners
from polyspanner.cli import main
from polyspanner.generator import GeneratorConfig, GeneratorError, generate
from polyspanner.io import (
    ParseError,
    parse_edge_list,
    parse_instance,
    write_edge_list,
    write_instance,
)
from polyspanner.scene import Scene, validate
from polyspanner.spanners import (
    GRAPH_NAMES,
    build_all,
    build_g7,
    build_g10,
    build_g15,
    build_g_infinity,
)
from polyspanner.svg import render_svg
from polyspanner.verify import degree_report
from polyspanner.visibility import Graph, visibility_graph


class TestInstanceFormat:
    def test_parse_integer_coordinates(self):
        sc = parse_instance('{"vertices": [[0, 0], [3, -2], [1, 5]]}')
        assert sc.n == 3
        assert sc.vertices[1] == (3, -2)

    def test_parse_decimal_and_string_forms(self):
        sc = parse_instance(
            '{"vertices": [[0.5, "2.25"], ["1/3", 4], [9, 1]]}'
        )
        assert sc.vertices[0] == (Fraction(1, 2), Fraction(9, 4))
        assert sc.vertices[1] == (Fraction(1, 3), Fraction(4))

    def test_round_trip_preserves_scene(self, split_cones):
        assert parse_instance(write_instance(split_cones)) == split_cones

    def test_round_trip_rational_coordinates(self):
        sc = Scene([(Fraction(1, 3), 0), (Fraction(-7, 2), Fraction(5, 4)), (2, 9)])
        text = write_instance(sc)
        assert '"1/3"' in text and '"-3.5"' in text
        assert parse_instance(text) == sc

    def test_output_is_plain_json(self, nonconvex):
        doc = json.loads(write_instance(nonconvex))
        assert set(doc) == {"vertices", "obstacles"}
        assert len(doc["vertices"]) == nonconvex.n

    def test_parse_converts_each_coordinate_once(self, monkeypatch):
        # Integer coordinates reach Scene as they came, so the parse path
        # makes one Fraction per coordinate.
        text = write_instance(generate(GeneratorConfig(n_points=22, n_obstacles=4, seed=3)))
        calls = []
        real = Fraction.__new__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        scene = parse_instance(text)
        monkeypatch.undo()
        assert len(calls) == 2 * scene.n == 44

    def test_parse_keeps_the_fraction_of_a_coordinate_string(self, monkeypatch):
        # Strings become a Fraction in the parser, which Scene keeps; the
        # three ints become one each in Scene: 6 calls for 6 coordinates.
        text = write_instance(
            Scene([(Fraction(1, 3), 0), (Fraction(-7, 2), Fraction(5, 4)), (2, 9)])
        )
        calls = []
        real = Fraction.__new__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        scene = parse_instance(text)
        monkeypatch.undo()
        assert len(calls) == 6
        assert scene.vertices[1] == (Fraction(-7, 2), Fraction(5, 4))

    @pytest.mark.parametrize(
        "text",
        [
            "not json at all",
            "[1, 2]",
            '{"vertices": 5}',
            '{"vertices": [[1]]}',
            '{"vertices": [[1, true]]}',
            '{"vertices": [[1, Infinity]]}',
            '{"vertices": [[1, "x"]]}',
            '{"vertices": [[0, 0]], "obstacles": [[0, 1, 2]]}',
            '{"vertices": [[0, 0]], "obstacles": [["a"]]}',
            '{"vertices": [[0, 0], [1, 2], [5, 1]], "obstacles": [[]]}',
            '{"vertices": [[0, 0]], "extra": 1}',
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParseError):
            parse_instance(text)

    @pytest.mark.parametrize(
        "number",
        ['"1e99999999"', "1e99999999", '"-2.5E-99999999"', "1e-99999999",
         "0." + "0" * 4300 + "1"],
        ids=["string", "json", "string-negative", "json-negative", "digits"],
    )
    def test_parse_refuses_huge_exponents_quickly(self, number):
        # Fraction would expand these into integers of 10**8 digits.
        start = time.perf_counter()
        with pytest.raises(ParseError, match="more than 4300 digits"):
            parse_instance(f'{{"vertices": [[0, 0], [{number}, 1]]}}')
        assert time.perf_counter() - start < 0.5

    def test_parse_rejects_invalid_scene(self):
        # bowtie obstacle: parses structurally but fails validation
        vertices = [[0, 0], [4, 0], [0, 3], [4, 3]]
        obstacles = [[0, 1, 2, 3]]
        text = json.dumps({"vertices": vertices, "obstacles": obstacles})
        with pytest.raises(ParseError, match="validation"):
            parse_instance(text)
        assert not validate(Scene(vertices, obstacles)).ok


# Each malformed edge list and the message it is refused with.
EDGE_LIST_ERRORS = {
    "": "empty edge list",
    "3\n": 'bad header \'3\', expected "n m"',
    "3 2\n0 1\n": "header claims 2 edges, found 1",
    "3 1\n0 3\n": "edge (0, 3) out of range for n=3",
    "3 1\n1 1\n": "loop edge at 1",
    "3 1\n0 x\n": "bad edge line '0 x'",
    "x y\n": "bad header 'x y'",
}


class TestEdgeList:
    def test_round_trip(self, split_cones):
        g = visibility_graph(split_cones)
        assert parse_edge_list(write_edge_list(g)) == g

    def test_format(self):
        g = Graph(3, [(2, 1), (0, 1)])
        assert write_edge_list(g) == "3 2\n0 1\n1 2\n"

    @pytest.mark.parametrize("text", list(EDGE_LIST_ERRORS))
    def test_edge_list_errors(self, text):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert str(err.value) == EDGE_LIST_ERRORS[text]


class TestGenerator:
    def test_deterministic(self):
        cfg = GeneratorConfig(n_points=18, n_obstacles=2, seed=7)
        assert generate(cfg) == generate(cfg)

    def test_different_seeds_differ(self):
        a = generate(GeneratorConfig(n_points=12, seed=1))
        b = generate(GeneratorConfig(n_points=12, seed=2))
        assert a != b

    def test_counts_and_validity(self):
        cfg = GeneratorConfig(n_points=25, n_obstacles=3, seed=11)
        sc = generate(cfg)
        assert sc.n == 25
        assert len(sc.obstacles) == 3
        assert validate(sc).ok

    def test_infeasible_budget_rejected(self):
        with pytest.raises(GeneratorError):
            GeneratorConfig(n_points=5, n_obstacles=2, obstacle_size=3)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_points=0)
        with pytest.raises(ValueError):
            GeneratorConfig(n_points=5, obstacle_size=2, n_obstacles=1)


class TestSvg:
    def test_structure(self, split_cones):
        import xml.etree.ElementTree as ET

        g = visibility_graph(split_cones)
        svg = render_svg(split_cones, g)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{ns}svg"
        assert len(root.findall(f"{ns}circle")) == split_cones.n
        assert len(root.findall(f"{ns}polygon")) == len(split_cones.obstacles)
        assert len(root.findall(f"{ns}line")) == g.m

    def test_highlights(self, micro3):
        import xml.etree.ElementTree as ET

        svg = render_svg(
            micro3,
            highlight_path=[0, 1, 2],
            highlight_cone=(0, 1.0472, 2.0944),
        )
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        assert root.findall(f"{ns}polyline")
        assert root.findall(f"{ns}path")

    def test_empty_scene(self):
        svg = render_svg(Scene([]))
        assert svg.startswith("<svg")

    def test_graph_size_mismatch(self, micro3):
        with pytest.raises(ValueError):
            render_svg(micro3, Graph(5, []))


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(fixture_text("split_cones.json"))
    return path


class TestCli:
    def test_gen_build_verify_round(self, tmp_path, capsys):
        inst = tmp_path / "a.json"
        edges = tmp_path / "a.edges"
        assert main(["gen", "--n", "14", "--obstacles", "1",
                     "--seed", "3", "--out", str(inst)]) == 0
        assert main(["build", "--graph", "g7", "--in", str(inst),
                     "--out", str(edges)]) == 0
        graph = parse_edge_list(edges.read_text())
        assert degree_report(graph).max_degree <= 7
        assert main(["verify", "--in", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "PASS oracle-equivalence(ginf)" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("name", ["vis", "ginf", "g15", "g10", "g7"])
    def test_build_matches_library(self, instance_file, tmp_path, name):
        out = tmp_path / f"{name}.edges"
        assert main(["build", "--graph", name, "--in", str(instance_file),
                     "--out", str(out)]) == 0
        scene = load_scene("split_cones.json")
        vis = visibility_graph(scene)
        ginf = build_g_infinity(scene, vis)
        g10 = build_g10(scene, ginf)
        expected = {
            "vis": vis,
            "ginf": ginf,
            "g15": build_g15(scene, ginf),
            "g10": g10,
            "g7": build_g7(scene, ginf, g10),
        }[name]
        assert parse_edge_list(out.read_text()) == expected

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_build_stops_at_its_graph(self, instance_file, tmp_path, name, monkeypatch):
        # Each step is counted where the pipeline looks it up; compute_charges
        # runs inside g7_transform.
        steps = ("visibility_graph", "build_g_infinity", "build_g15", "build_g10",
                 "g7_transform", "compute_charges")
        expected = write_edge_list(build_all(load_scene("split_cones.json"))[0][name])
        calls = Counter()
        for step in steps:
            real = getattr(spanners, step)
            monkeypatch.setattr(
                spanners, step, lambda *a, _s=step, _f=real: calls.update([_s]) or _f(*a)
            )
        out = tmp_path / f"{name}.edges"
        assert main(["build", "--graph", name, "--in", str(instance_file),
                     "--out", str(out)]) == 0
        assert out.read_text() == expected
        built = {"vis": 1, "ginf": 2, "g15": 3, "g10": 4, "g7": 6}[name]
        assert calls == Counter(steps[:built])

    def test_verify_corrupted_substitution(self, instance_file, tmp_path, capsys):
        edges = tmp_path / "ginf.edges"
        main(["build", "--graph", "ginf", "--in", str(instance_file),
              "--out", str(edges)])
        lines = edges.read_text().splitlines()
        n, m = lines[0].split()
        bad = [f"{n} {int(m) - 1}"] + lines[2:]  # drop the first edge
        edges.write_text("\n".join(bad) + "\n")
        rc = main(["verify", "--in", str(instance_file),
                   "--graph", "ginf", "--edges", str(edges)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL oracle-equivalence(ginf)" in out

    def test_verify_names_the_least_vis_pair_inside_a_wedge(self, tmp_path, capsys):
        # Vertices 12 and 16 lie inside the obstacle wedges at 6 and 0; a
        # vis list that holds both pairs fails the per-edge bound at the
        # least of them, whichever order the list names them in.
        scene = generate(GeneratorConfig(n_points=20, n_obstacles=2, seed=0))
        vis = visibility_graph(scene)
        inst, edges = tmp_path / "s.json", tmp_path / "vis.edges"
        inst.write_text(write_instance(scene))
        edges.write_text(write_edge_list(Graph(scene.n, [(6, 12), *vis.edges, (0, 16)])))
        assert main(["verify", "--in", str(inst), "--graph", "vis", "--edges", str(edges)]) == 1
        stdout, stderr = capsys.readouterr()
        (line,) = [x for x in stdout.splitlines() if x.startswith("FAIL per-edge-bound")]
        assert line == (
            "FAIL per-edge-bound(ginf|vis): "
            "vertex 16 lies strictly inside the obstacle wedge at vertex 0"
        )
        assert stderr == ""

    def test_verify_validates_the_scene_once(self, instance_file, monkeypatch, capsys):
        # Parsing rejects an invalid scene and run_verification reports
        # its scene-valid line from the same report.
        real = scene_module.validate
        calls = []
        for name, module in list(sys.modules.items()):
            if name.startswith("polyspanner") and getattr(module, "validate", None) is real:
                monkeypatch.setattr(module, "validate", lambda sc: calls.append(sc) or real(sc))
        assert main(["verify", "--in", str(instance_file)]) == 0
        assert len(calls) == 1
        assert "PASS scene-valid" in capsys.readouterr().out

    def test_reused_parser_leaks_no_state(self, instance_file, tmp_path, capsys):
        # One parser serves every call of a process; each call must still
        # parse from the defaults.
        empty = tmp_path / "g15.edges"
        empty.write_text("12 0\n")
        assert main(["verify", "--in", str(instance_file),
                     "--graph", "g15", "--edges", str(empty)]) == 1
        assert "FAIL subgraph-chain" in capsys.readouterr().out
        assert main(["verify", "--in", str(instance_file)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 25 and all(line.startswith("PASS ") for line in lines)
        assert main(["build", "--graph", "g99", "--in", str(instance_file),
                     "--out", str(tmp_path / "x")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "invalid choice: 'g99'" in err
        assert main(["verify", "--in", str(instance_file)]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert main(["verify", "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: polyspanner verify") and err == ""

    def test_one_parser_per_process(self, instance_file, tmp_path, monkeypatch, capsys):
        built = []
        real = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            for argv in (
                ["gen", "--n", "12", "--out", str(tmp_path / "a.json")],
                ["build", "--graph", "g7", "--in", str(instance_file),
                 "--out", str(tmp_path / "a.edges")],
                ["verify", "--in", str(instance_file)],
                ["frobnicate"],
                ["render", "--help"],
                ["perturb", "--in", str(instance_file), "--out", str(tmp_path / "b.json")],
            ):
                main(argv)
        finally:
            cli.build_parser.cache_clear()
        capsys.readouterr()
        commands = ("gen", "build", "verify", "render", "perturb")
        assert built == ["polyspanner"] + [f"polyspanner {c}" for c in commands]

    def test_verify_mismatched_substitution_flags(self, instance_file, capsys):
        rc = main(["verify", "--in", str(instance_file), "--graph", "ginf"])
        assert rc == 2

    def test_verify_substitution_vertex_count_mismatch(
        self, instance_file, tmp_path, capsys
    ):
        edges = tmp_path / "g15.edges"
        edges.write_text("5 1\n0 1\n")
        rc = main(["verify", "--in", str(instance_file),
                   "--graph", "g15", "--edges", str(edges)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines() == [
            "verify: g15 edge list has 5 vertices, scene has 12"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "8"],
            ["build", "--graph", "g7", "--in", "{inst}"],
            ["render", "--in", "{inst}"],
            ["perturb", "--in", "{inst}"],
        ],
        ids=["gen", "build", "render", "perturb"],
    )
    def test_unwritable_out_is_usage_error(
        self, instance_file, tmp_path, capsys, argv
    ):
        argv = [a.format(inst=instance_file) for a in argv]
        out = tmp_path / "no-such-dir" / "x"
        assert main(argv + ["--out", str(out)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "Traceback" not in stderr
        (line,) = stderr.splitlines()
        assert line.startswith(f"{argv[0]}: ")
        assert str(out) in line

    def test_input_errors_are_one_usage_line(self, instance_file, tmp_path, monkeypatch, capsys):
        # main reports an unreadable or malformed --in or --edges of every
        # command, as each command once did itself, nothing written.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.json").write_text("{not json")
        missing = "[Errno 2] No such file or directory: 'missing.json'"
        malformed = (
            "not valid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)"
        )
        cases = [
            (["verify", "--in", str(instance_file), "--graph", "g15", "--edges", "missing.json"],
             f"verify: {missing}"),
        ]
        for argv in (["build", "--graph", "g7", "--out", "o"], ["verify"],
                     ["render", "--out", "o"], ["perturb", "--out", "o"]):
            cases.append((argv + ["--in", "missing.json"], f"{argv[0]}: {missing}"))
            cases.append((argv + ["--in", "bad.json"], f"{argv[0]}: {malformed}"))
        for argv, line in cases:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", line + "\n"), argv
        assert not (tmp_path / "o").exists()

    def test_render(self, instance_file, tmp_path):
        out = tmp_path / "pic.svg"
        assert main(["render", "--in", str(instance_file), "--graph", "ginf",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    @pytest.mark.parametrize(
        "argv", [["build", "--graph", "g7"], ["render", "--graph", "ginf"]],
        ids=["build", "render"],
    )
    def test_scene_outside_general_position_is_usage_error(
        self, tmp_path, capsys, argv
    ):
        src = tmp_path / "col.json"
        src.write_text('{"vertices": [[0, 0], [1, 1], [2, 2], [5, 0]]}')
        assert main(argv + ["--in", str(src), "--out", "-"]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "Traceback" not in stderr
        (line,) = stderr.splitlines()
        assert line.startswith(f"{argv[0]}: ")
        assert "not in general position" in line

    def test_vis_needs_no_general_position(self, tmp_path, capsys):
        # vis is exact on any input; the cone graphs still refuse.
        text = '{"vertices": [[0, 0], [1, 1], [2, 2], [5, 0]]}'
        src = tmp_path / "col.json"
        src.write_text(text)
        assert main(["build", "--graph", "vis", "--in", str(src), "--out", "-"]) == 0
        stdout, stderr = capsys.readouterr()
        scene = parse_instance(text)
        pairs = {(u, v) for u in range(4) for v in range(u + 1, 4) if visible(scene, u, v)}
        assert parse_edge_list(stdout).edges == pairs
        assert (0, 2) not in pairs and stderr == ""
        assert main(["render", "--graph", "vis", "--in", str(src), "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith("<svg")
        assert main(["build", "--graph", "ginf", "--in", str(src), "--out", "-"]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        (line,) = stderr.splitlines()
        assert line.startswith("build: ") and "not in general position" in line

    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["build", "--graph", "vis", "--out", "-"],
         ["render", "--out", "-"], ["perturb", "--out", "-"]],
        ids=["verify", "build", "render", "perturb"],
    )
    def test_empty_obstacle_ring_is_usage_error(self, tmp_path, capsys, argv):
        src = tmp_path / "empty-ring.json"
        src.write_text('{"vertices": [[0,0],[1,2],[5,1]], "obstacles": [[]]}')
        assert main(argv + ["--in", str(src)]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert "Traceback" not in stderr
        (line,) = stderr.splitlines()
        assert line == f"{argv[0]}: obstacle 0 is empty"

    def test_perturb_restores_general_position(self, tmp_path):
        src = tmp_path / "flat.json"
        dst = tmp_path / "ok.json"
        src.write_text('{"vertices": [[0, 0], [10, 0], [3, 7]]}')
        assert main(["perturb", "--in", str(src), "--out", str(dst)]) == 0
        from polyspanner.scene import check_general_position

        assert check_general_position(parse_instance(dst.read_text())).ok

    def test_perturb_rejects_collinear(self, tmp_path, capsys):
        src = tmp_path / "col.json"
        src.write_text('{"vertices": [[0, 0], [1, 1], [2, 2], [5, 0]]}')
        assert main(["perturb", "--in", str(src), "--out",
                     str(tmp_path / "x.json")]) == 2
        assert "collinear" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["verify", "--in", str(tmp_path / "nope.json")]) == 2

    def test_bad_instance_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["build", "--graph", "vis", "--in", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_verify_huge_coordinates(self, tmp_path, capsys):
        # Squared lengths overflow a float here; the lengths do not.
        src = tmp_path / "huge.json"
        src.write_text('{"vertices": [[0,0],[1e200,3e199],[5e199,9e200]]}')
        assert main(["verify", "--in", str(src)]) == 0
        out, err = capsys.readouterr()
        assert out.count("PASS") == 25
        assert "Traceback" not in err

    def test_verify_out_of_float_range_is_usage_error(self, tmp_path, capsys):
        # Coordinate differences near 3.4e308 have no float at all.
        src = tmp_path / "huger.json"
        src.write_text('{"vertices": [[-1.7e308,0],[1.7e308,1e307],[0,1.5e308]]}')
        assert main(["verify", "--in", str(src)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_verify_float_overflow_names_the_command(self, tmp_path, capsys):
        # 1e400 is an exact coordinate, but no edge length can be a float.
        src = tmp_path / "overflow.json"
        src.write_text('{"vertices": [[0,0],[1e400,1],[2,7]]}')
        assert main(["verify", "--in", str(src)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        (line,) = err.splitlines()
        assert line == (
            "verify: coordinate too large for a float "
            "(integer division result too large for a float)"
        )

    def test_gen_infeasible_is_usage_error(self, tmp_path, capsys):
        rc = main(["gen", "--n", "4", "--obstacles", "2",
                   "--out", str(tmp_path / "x.json")])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "vertices, edges",
        [("[]", "0 0\n"), ("[[0, 0]]", "1 0\n"), ("[[0, 0], [1, 3]]", "2 1\n0 1\n")],
        ids=["n0", "n1", "n2"],
    )
    def test_tiny_inputs(self, tmp_path, capsys, vertices, edges):
        src = tmp_path / "tiny.json"
        out = tmp_path / "tiny.edges"
        src.write_text(f'{{"vertices": {vertices}}}')
        assert main(["verify", "--in", str(src)]) == 0
        assert main(["build", "--graph", "g7", "--in", str(src),
                     "--out", str(out)]) == 0
        assert out.read_text() == edges
        stdout, stderr = capsys.readouterr()
        lines = stdout.splitlines()
        assert len(lines) == 25
        assert all(line.startswith("PASS ") for line in lines)
        assert "Traceback" not in stderr
