"""CLI surface: JSON formats, exit codes, determinism."""

import contextlib
import copy
import gc
import importlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from dimermod import DimermodError, cli, moves, polygon as poly, spectral as sp, torusgraph as tg
from dimermod import suites
from dimermod.suites import bundled_script
from test_torusgraph import _doubled_edge

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
DIAMOND = {"vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]}


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_polygon_info(tmp_path, capsys):
    p = _write(tmp_path, "d.json", DIAMOND)
    code, out = _run(capsys, ["polygon", "info", "--polygon", p])
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 1
    assert data["interior_points"] == [[0, 0]]


def test_group_compute(tmp_path, capsys):
    p = _write(tmp_path, "d.json", DIAMOND)
    code, out = _run(capsys, ["group", "compute", "--polygon", p])
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 1 and data["torsion"] == [2]
    assert data["case"] == "interior_point"
    assert data["embedding_matrix"] == [[-1, -1], [1, -1], [1, 1], [-1, 1]]


def test_group_torsion_lattice(tmp_path, capsys):
    p = _write(tmp_path, "d.json", DIAMOND)
    code, out = _run(capsys, ["group", "torsion-lattice", "--polygon", p])
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == [["1", "0"], ["-1/2", "1/2"]]
    assert data["index_over_H1"] == 2


def test_group_max_translation(tmp_path, capsys):
    p = _write(tmp_path, "d.json", DIAMOND)
    code, out = _run(capsys, ["group", "max-translation-polygon", "--polygon", p])
    assert code == 0
    assert json.loads(out)["w_rows"] == [[0, 1], [-1, -1], [0, -1], [1, 1]]


def test_graph_newton_and_check(capsys):
    code, out = _run(capsys, ["graph", "newton", "--graph", "square_lattice"])
    assert code == 0
    data = json.loads(out)
    assert data["polygon"]["vertices"] == [[0, 0], [1, -1], [2, 0], [1, 1]]
    code, out = _run(capsys, ["graph", "check", "--graph", "honeycomb"])
    assert code == 0
    assert json.loads(out)["minimal"] is True


def test_graph_export_round_trip(tmp_path, capsys):
    code, out = _run(capsys, ["graph", "export", "--graph", "honeycomb"])
    assert code == 0
    path = tmp_path / "hc.json"
    path.write_text(out)
    code, out2 = _run(capsys, ["graph", "newton", "--graph", str(path)])
    assert code == 0
    assert json.loads(out2)["polygon"]["vertices"] == [[0, 0], [1, 0], [0, 1]]


def test_spectral_poly(tmp_path, capsys):
    w = _write(tmp_path, "w.json", {"e0": "2", "e1": "3", "e2": "5/1"})
    code, out = _run(
        capsys, ["spectral", "poly", "--graph", "honeycomb", "--weights", w]
    )
    assert code == 0
    terms = json.loads(out)["terms"]
    assert len(terms) == 3


@pytest.mark.parametrize("name", ["square_lattice_3", "honeycomb_5"])
def test_spectral_poly_same_bytes_cold_and_warm(name, tmp_path, capsys, monkeypatch):
    """The first call evaluates on the degree box, the next on the matching polygon it learned."""
    g = tg.resolve_graph(name)
    rng = random.Random(name)
    w = _write(tmp_path, "w.json", {e: "%d/%d" % (rng.randint(1, 9), rng.randint(1, 9)) for e in g.edges})
    for flags in ([], ["--normalized"]):
        tg._catalog_graph.cache_clear()
        g = tg.resolve_graph(name)
        argv = ["spectral", "poly", "--graph", name, "--weights", w] + flags
        cold = _run(capsys, argv)
        assert g.derived(sp._Plan).region is not None
        assert _run(capsys, argv) == cold and cold[0] == 0


def test_abel_map_cli(capsys):
    code, out = _run(capsys, ["abel", "map", "--graph", "square_lattice"])
    assert code == 0
    data = json.loads(out)
    assert all(v == 0 for v in data["values"][data["base"]].values())


def test_bb_find(tmp_path, capsys):
    p = _write(tmp_path, "t.json", {"vertices": [[0, 0], [3, 0], [0, 3]]})
    code, out = _run(capsys, ["bb", "find", "--polygon", p])
    assert code == 0
    assert len(json.loads(out)["vertices"]) <= 4


def test_bb_find_genus_zero_exits_2(tmp_path, capsys):
    p = _write(tmp_path, "t.json", {"vertices": [[0, 0], [1, 0], [0, 1]]})
    assert cli.main(["bb", "find", "--polygon", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("NoInteriorPoint: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("command", [["polygon", "info"], ["group", "compute"], ["bb", "find"]])
def test_vertices_winding_twice_exit_2(tmp_path, capsys, command):
    """Six left turns that go twice around are no polygon: exit 2, no traceback."""
    star = [[25, -9], [-14, 4], [27, -30], [15, -20], [-30, 11], [-11, -23]]
    p = _write(tmp_path, "star.json", {"vertices": star})
    assert cli.main(command + ["--polygon", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "turn 2 times around" in captured.err and "Traceback" not in captured.err


def test_bb_find_never_scans_the_bounding_box(tmp_path, capsys, monkeypatch):
    """The triangle cut walks the interior column by column, not the bounding box."""

    def scan(self):
        raise AssertionError("bounding box scanned")

    p = _write(tmp_path, "t.json", {"vertices": [[0, 0], [397, 1], [2, 391]]})
    monkeypatch.setattr(poly.ConvexIntegralPolygon, "lattice_points", scan)
    code, out = _run(capsys, ["bb", "find", "--polygon", p])
    assert code == 0
    # the block the reference search of tests/test_polygon.py returns
    assert json.loads(out) == {"vertices": [[0, 0], [1, 194], [2, 391]]}


def test_shuffle_phi(tmp_path, capsys):
    s = _write(tmp_path, "s.json", bundled_script("domino_shuffle"))
    code, out = _run(capsys, ["shuffle", "phi", "--script", s])
    assert code == 0
    data = json.loads(out)
    assert data["trivial"] is False
    assert sorted(data["per_edge"].values()) == [-1, 0, 0, 1]


def test_shuffle_apply_with_weights(tmp_path, capsys):
    s = _write(tmp_path, "s.json", bundled_script("translation_x"))
    w = _write(
        tmp_path, "w.json", {e: "1" for e in bundled_script("translation_x")["closing"]["edge_map"]}
    )
    code, out = _run(capsys, ["shuffle", "apply", "--script", s, "--weights", w])
    assert code == 0
    data = json.loads(out)
    assert data["trivial"] is True


@pytest.mark.parametrize("command", ["apply", "phi"])
def test_shuffle_reads_the_script_graph_once(command, tmp_path, capsys, monkeypatch):
    """Once per call: a graph file is read, validated and traced on every call, and never kept."""
    script = bundled_script("domino_shuffle")
    script["graph"] = _write(tmp_path, "g.json", tg.resolve_graph(script["graph"]).to_json())
    s = _write(tmp_path, "s.json", script)
    reads, traced = [], []
    validate, track = tg.validate_graph, moves._track_strands
    monkeypatch.setattr(tg, "validate_graph", lambda data: _keep_ref(reads, validate(data)))
    monkeypatch.setattr(moves, "_track_strands", lambda *args: traced.append(1) or track(*args))
    outs = []
    for n in (1, 2):
        code, out = _run(capsys, ["shuffle", command, "--script", s])
        outs.append(out)
        gc.collect()
        assert code == 0 and len(reads) == n and len(traced) == n and all(r() is None for r in reads)
    assert outs[0] == outs[1]


def _keep_ref(refs, g):
    refs.append(weakref.ref(g))
    return g


def _run_all(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", ["apply", "phi"])
def test_shuffle_prints_the_same_on_a_miss_and_a_hit(command, tmp_path, capsys, monkeypatch):
    """stdout, stderr and exit code of a traced script match its first run, Delta = 0 included."""
    rng = random.Random(command)
    tg._catalog_graph.cache_clear()
    for name, script in _shuffle_scripts(monkeypatch).items():
        s = _write(tmp_path, name + ".json", script)
        edges = sorted(tg.resolve_graph(script["graph"]).edges)
        signed = {e: "%d/%d" % (rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)) for e in edges}
        weights = [[], ["--weights", _write(tmp_path, "w.json", signed)]]
        if name == "domino_shuffle":
            zero = {e: ("-1" if e == "h0,0" else "1") for e in edges}
            weights.append(["--weights", _write(tmp_path, "zero.json", zero)])
        for extra in weights:
            argv = ["shuffle", command, "--script", s] + extra
            traces = tg.resolve_graph(script["graph"]).derived(moves._trace_table)
            traces.clear()
            miss = _run_all(capsys, argv)
            _run_all(capsys, ["shuffle", command, "--script", s])
            assert len(traces) == 1
            assert _run_all(capsys, argv) == miss, (name, extra)
        if name == "domino_shuffle":
            assert miss == (2, "", "MoveNotApplicable: face f0 has Delta = ac + bd = 0\n")


def test_zero_delta_on_a_hit_survives_optimize_flag(tmp_path):
    """The Delta check of a replay is an explicit raise, so python -O keeps it."""
    s = _write(tmp_path, "s.json", bundled_script("domino_shuffle"))
    edges = tg.catalog("square_lattice").graph.edges
    sw = _write(tmp_path, "sw.json", {e: ("-1" if e == "h0,0" else "1") for e in edges})
    code = (
        "import contextlib, io, json\n"
        "from dimermod import cli, moves, torusgraph as tg\n"
        "def run(*extra):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(['shuffle', 'apply', '--script', %r] + list(extra))\n"
        "    return code, err.getvalue(), len(tg.resolve_graph('square_lattice').derived(moves._trace_table))\n"
        "print(json.dumps([run('--weights', %r), run(), run('--weights', %r)]))\n"
    ) % (s, sw, sw)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    miss, warm, hit = json.loads(out.stdout)
    assert miss == [2, "MoveNotApplicable: face f0 has Delta = ac + bd = 0\n", 0]
    assert warm[0] == 0 and warm[2] == 1
    assert hit == [2, miss[1], 1]


def test_shuffle_apply_builds_the_abel_map_once(tmp_path, capsys, monkeypatch):
    """`abel map`, a k-fold shuffle (which permutes a family) on a miss and a hit, and its phi share one map."""
    monkeypatch.syspath_prepend(BENCH)
    import bench_inputs

    s = _write(tmp_path, "s.json", bench_inputs.shuffle_script(2))
    builds = []
    build = sp._abel_map
    monkeypatch.setattr(sp, "_abel_map", lambda g, v=None: builds.append(g) or build(g, v))
    tg._catalog_graph.cache_clear()
    outs = [_run(capsys, ["abel", "map", "--graph", "square_lattice_2"])]
    for command in ("apply", "apply", "phi"):
        outs.append(_run(capsys, ["shuffle", command, "--script", s]))
    assert builds == [tg.resolve_graph("square_lattice_2")]
    # a fresh graph builds its own map, and every call prints the same bytes
    tg._catalog_graph.cache_clear()
    again = [_run(capsys, ["shuffle", "apply", "--script", s])]
    again.append(_run(capsys, ["abel", "map", "--graph", "square_lattice_2"]))
    assert len(builds) == 2 and builds[1] is tg.resolve_graph("square_lattice_2")
    assert again == [outs[1], outs[0]] and all(code == 0 for code, _ in outs)


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["group", "compute", "--polygon", str(bad)]) == 2
    capsys.readouterr()
    p = _write(tmp_path, "flat.json", {"vertices": [[0, 0], [1, 0], [2, 0]]})
    assert cli.main(["group", "compute", "--polygon", p]) == 2
    capsys.readouterr()

    # each fault exits 2 without a traceback and names the edge, face or vertex
    w = _write(tmp_path, "w.json", {"e0": "1/0", "e1": "1", "e2": "1"})
    square = bundled_script("domino_shuffle")
    s = _write(tmp_path, "s.json", square)
    spider = square["moves"][0]["spider"]
    ones = {e: ("-1" if e == "h0,0" else "1") for e in tg.catalog("square_lattice").graph.edges}
    sw = _write(tmp_path, "sw.json", ones)
    p = _write(tmp_path, "half.json", {"vertices": [[0, 0], [2.5, 0], [0, 2]]})
    honeycomb = tg.catalog("honeycomb").graph.to_json()
    honeycomb["edges"][1]["disp"] = [1.5, 0]
    g = _write(tmp_path, "g.json", honeycomb)
    nope = dict(square, moves=[{"contract": "nope"}] + square["moves"])
    c = _write(tmp_path, "c.json", nope)
    half_expand = dict(square, moves=[{"expand": {"vertex": "b0,0"}}] + square["moves"])
    x = _write(tmp_path, "x.json", half_expand)
    m = _write(tmp_path, "m.json", dict(square, moves=3))
    t = _write(tmp_path, "t.json", dict(square, closing=dict(square["closing"], translation="ab")))
    pair = _write(tmp_path, "pair.json", [1, 2])
    rotation = tg.catalog("honeycomb").graph.to_json()
    rotation["rotations"]["b0"] = 5
    r = _write(tmp_path, "r.json", rotation)
    black = tg.catalog("honeycomb").graph.to_json()
    black["edges"][1]["black"] = ["b0"]
    b = _write(tmp_path, "b.json", black)
    stray = tg.catalog("honeycomb").graph.to_json()
    stray["rotations"]["zz"] = []
    z = _write(tmp_path, "z.json", stray)
    extra = _write(tmp_path, "extra.json", {"e0": "1", "e1": "1", "e2": "1", "e9": "5"})
    lenient = _write(tmp_path, "lenient.json", {"e0": "1", "e1": "1_000", "e2": "1"})
    keyless = _write(tmp_path, "keyless.json", {"vertexes": [[0, 0], [1, 0], [0, 1]]})
    repeat = _write(tmp_path, "repeat.json", {"vertices": [[0, 0], [1, 0], [0, 1], [0, 0]]})
    straight = _write(tmp_path, "straight.json", {"vertices": [[0, 0], [1, 0], [2, 0], [0, 1]]})
    dent = _write(tmp_path, "dent.json", {"vertices": [[0, 0], [4, 0], [1, 1], [0, 4]]})
    dent_cw = _write(tmp_path, "dent_cw.json", {"vertices": [[0, 0], [0, 4], [1, 1], [4, 0]]})
    index2 = tg.catalog("honeycomb").graph.to_json()
    index2["edges"][1]["disp"] = [2, 0]
    i2 = _write(tmp_path, "i2.json", index2)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)  # deeper than json can decode
    deep = str(tmp_path / "deep.json")
    sd = _write(tmp_path, "sd.json", dict(square, graph=deep))
    for argv, named in (
        (["spectral", "poly", "--graph", "honeycomb", "--weights", w], "edge e0"),
        (["shuffle", "apply", "--script", s, "--weights", sw], "face %s" % spider),
        (["group", "compute", "--polygon", p], "vertex 1 [2.5, 0]"),
        (["group", "compute", "--polygon", repeat], ": repeated vertex in input: vertices 0 and 3 are both [0, 0]\n"),
        (["polygon", "info", "--polygon", straight], ": three consecutive vertices are collinear: vertex 1 [1, 0] "),
        (["bb", "find", "--polygon", dent], ": vertex sequence is not convex: vertex 2 [1, 1] turns against"),
        (["group", "pic0", "--polygon", dent_cw], ": vertex sequence is not convex: vertex 2 [1, 1] turns against"),
        (["graph", "check", "--graph", g], "edge e1"),
        (["shuffle", "apply", "--script", c], "vertex nope"),
        (["shuffle", "apply", "--script", x], "move 0"),
        (["shuffle", "apply", "--script", m], "'moves'"),
        (["shuffle", "apply", "--script", t], "'translation'"),
        (["graph", "check", "--graph", pair], "graph must be a JSON object"),
        (["graph", "check", "--graph", r], "rotation at b0"),
        (["graph", "check", "--graph", b], "edge e1"),
        (["graph", "check", "--graph", z], "rotation at zz"),
        (["spectral", "poly", "--graph", "honeycomb", "--weights", extra], "graph: e9"),
        (["spectral", "poly", "--graph", "honeycomb", "--weights", lenient], "edge e1: '1_000'"),
        (["group", "compute", "--polygon", keyless], '{"vertices"'),
        (["graph", "check", "--graph", i2], "sublattice of index 2"),
        (["abel", "map", "--graph", i2], "sublattice of index 2"),
        (["group", "compute", "--polygon", deep], "input error: polygon %s: " % deep),
        (["graph", "check", "--graph", deep], "input error: graph %s: " % deep),
        (["spectral", "poly", "--graph", "honeycomb", "--weights", deep], "input error: weights %s: " % deep),
        (["shuffle", "apply", "--script", deep], "input error: script %s: " % deep),
        (["shuffle", "apply", "--script", sd], "input error: graph %s: " % deep),
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["apply", "phi"])
def test_shuffle_names_the_least_zero_weight_edge(command, tmp_path, capsys):
    s = _write(tmp_path, "s.json", bundled_script("domino_shuffle"))
    edges = sorted(tg.catalog("square_lattice").graph.edges)
    w = _write(tmp_path, "w.json", dict({e: "1" for e in edges}, **{edges[5]: "0", edges[2]: "-0/3"}))
    want = (2, "", "MoveError: weights must be nonzero: edge %s has weight 0\n" % edges[2])
    for _ in range(2):  # a miss, then with the script traced
        assert _run_all(capsys, ["shuffle", command, "--script", s, "--weights", w]) == want
        assert _run_all(capsys, ["shuffle", command, "--script", s])[0] == 0


def test_json_flag_is_gone(tmp_path, capsys):
    p = _write(tmp_path, "d.json", DIAMOND)
    with pytest.raises(SystemExit) as exc:
        cli.main(["--json", "polygon", "info", "--polygon", p])
    assert exc.value.code == 2
    assert "unrecognized arguments: --json" in capsys.readouterr().err


# Each loader's fuzz seed document and the command that reads it from a file.
LOADERS = {
    "polygon": (DIAMOND, ["group", "compute", "--polygon"]),
    "graph": (tg.catalog("honeycomb").graph.to_json(), ["graph", "check", "--graph"]),
    "script": (bundled_script("domino_shuffle"), ["shuffle", "apply", "--script"]),
    "weights": (
        {e: "1" for e in tg.catalog("honeycomb").graph.edges},
        ["spectral", "poly", "--graph", "honeycomb", "--weights"],
    ),
}
DELETE = object()
REPLACEMENTS = (None, 3, 1.5, True, "x", [], {}, [1, 2], DELETE)


def _paths(doc, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else []
    for k, v in items:
        yield from _paths(v, path + (k,))


def _mutated(doc, path, new):
    """A copy of doc with the node at path replaced by new, or deleted if new is DELETE."""
    if not path:
        return {} if new is DELETE else new
    out = copy.deepcopy(doc)
    parent = out
    for k in path[:-1]:
        parent = parent[k]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return out


@st.composite
def mutated_inputs(draw):
    name = draw(st.sampled_from(sorted(LOADERS)))
    doc, argv = LOADERS[name]
    path = draw(st.sampled_from(list(_paths(doc))))
    new = draw(st.sampled_from(REPLACEMENTS))
    return argv, _mutated(doc, path, new)


@settings(max_examples=300, deadline=None)
@given(mutated_inputs())
def test_loaders_fuzz_exit_code(case):
    """One replaced or deleted JSON node: exit 0 or 2, never a crash or a traceback."""
    argv, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + [path])
    assert code in (0, 2), (argv, doc)
    assert "Traceback" not in err.getvalue()
    assert (code == 2) == bool(err.getvalue())


def test_verify_all_reports_corrupted_catalog(tmp_path, capsys, monkeypatch):
    from dimermod import polygon as poly, torusgraph as tg

    real = tg.catalog

    def corrupted(name):
        entry = real(name)
        if name == "honeycomb":
            wrong = poly.validate_polygon([(0, 0), (2, 0), (0, 2)])
            return tg.CatalogEntry(
                name=name, graph=entry.graph, newton=wrong, genus=entry.genus
            )
        return entry

    monkeypatch.setattr(tg, "catalog", corrupted)
    code, out = _run(capsys, ["verify-all", "--suite", "spectral"])
    assert code == 1
    data = json.loads(out)
    assert data["results"]["spectral"] == "fail"
    assert any("honeycomb" in msg for msg in data["failed_assertions"])


def test_verify_all_timing_flag(capsys):
    code, out = _run(capsys, ["verify-all", "--suite", "spectral", "--timing"])
    assert code == 0
    assert "timing_ms" in json.loads(out)


def test_verify_all_timing_per_suite(capsys):
    code, out = _run(capsys, ["verify-all", "--timing"])
    assert code == 0
    data = json.loads(out)
    by_suite = data["timing_ms_by_suite"]
    assert sorted(by_suite) == sorted(data["results"]) == sorted(suites.SUITES)
    assert all(type(ms) is int and ms >= 0 for ms in by_suite.values())
    assert data["timing_ms"] >= sum(by_suite.values())


def test_verify_all_timing_per_check(capsys):
    code, out = _run(capsys, ["verify-all", "--timing"])
    assert code == 0
    data = json.loads(out)
    by_check = data["timing_ms_by_check"]
    assert sorted(by_check) == sorted(suites.SUITES)
    for name, checks in by_check.items():
        assert sorted(checks) == sorted(check for check, _ in suites.SUITES[name])
        assert all(type(ms) is int and ms >= 0 for ms in checks.values())
        assert data["timing_ms_by_suite"][name] >= sum(checks.values())


def test_error_families_share_one_base():
    """cli.main maps every DimermodError to exit 2; each family stays a ValueError."""
    for cls in (poly.PolygonError, tg.GraphError, moves.MoveError, sp.ZeroPolynomial):
        assert issubclass(cls, DimermodError) and issubclass(cls, ValueError)


def test_verify_all_deterministic(capsys):
    code, out1 = _run(capsys, ["verify-all", "--suite", "spectral", "--seed", "7"])
    assert code == 0
    code, out2 = _run(capsys, ["verify-all", "--suite", "spectral", "--seed", "7"])
    assert code == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["results"]["spectral"] == "pass"
    assert data["failed_assertions"] == []
    assert "timing_ms" not in data


# -- the command line: leaf parsers, the JSON writer, shared catalog graphs --------------


def _leaf_argvs(tmp_path):
    """One valid argv per (command, sub) pair, cheap to run."""
    p = _write(tmp_path, "d.json", DIAMOND)
    s = _write(tmp_path, "s.json", bundled_script("domino_shuffle"))
    w = _write(tmp_path, "w.json", {"e0": "2", "e1": "3", "e2": "5/1"})
    argvs = {("polygon", "info"): ["--polygon", p], ("bb", "find"): ["--polygon", p]}
    for sub in ("compute", "torsion-lattice", "max-translation-polygon", "pic0"):
        argvs["group", sub] = ["--polygon", p]
    for sub in ("check", "newton", "export"):
        argvs["graph", sub] = ["--graph", "square_lattice"]
    argvs["spectral", "poly"] = ["--graph", "honeycomb", "--weights", w, "--normalized"]
    argvs["abel", "map"] = ["--graph", "square_lattice"]
    for sub in ("apply", "phi"):
        argvs["shuffle", sub] = ["--script", s]
    assert sorted(argvs) == sorted(cli.build_parser().leaves)
    return {pair: list(pair) + rest for pair, rest in argvs.items()}


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def test_leaf_parsing_matches_the_top_parser(tmp_path, capsys, monkeypatch):
    """stdout, stderr and exit code of each argv equal those of build_parser().parse_args."""
    p = _write(tmp_path, "d.json", DIAMOND)
    corpus = [[], ["group"], ["group", "-h"], ["nope"], ["group", "nope"]]
    corpus += [["--json", "polygon", "info", "--polygon", p], ["verify-all", "--seed", "x"]]
    corpus += [["verify-all", "-h"], ["verify-all", "--bogus"], ["verify-all", "extra"]]
    for pair, argv in _leaf_argvs(tmp_path).items():
        pair = list(pair)
        corpus += [argv, pair, argv + ["--bogus"], argv + ["extra"], pair + ["--poly", p], pair + ["-h"]]
    got = [_outcome(capsys, argv) for argv in corpus]
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    want = [_outcome(capsys, argv) for argv in corpus]
    for argv, a, b in zip(corpus, got, want):
        assert a == b, argv
    # the corpus reaches every outcome: success, help, usage errors and the top usage for leftovers
    codes = [code for _, _, code in got]
    assert 0 in codes and ("SystemExit", 0) in codes and ("SystemExit", 2) in codes
    top_usage = [err for _, err, _ in got if err.startswith("usage: dimermod [-h]")]
    assert any("unrecognized arguments: extra" in err for err in top_usage)


def _json_reference(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_emit_writes_what_json_dumps_writes_for_every_command(tmp_path, capsys, monkeypatch):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda payload: payloads.append(payload) or emit(payload))
    argvs = list(_leaf_argvs(tmp_path).values())
    argvs += [["verify-all", "--suite", "spectral"], ["verify-all", "--suite", "spectral", "--timing"]]
    doubled = _doubled_edge(tg.catalog("square_lattice").graph, "h0,0").to_json()
    argvs.append(["graph", "check", "--graph", _write(tmp_path, "doubled.json", doubled)])  # not minimal
    for argv in argvs:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().out == _json_reference(payloads[-1]), argv
    assert len(payloads) == 16 and "certificate" in payloads[-1]


_TEXT = st.text(st.sampled_from('ab"\\/\x00\x1f\x7fé \U0001f600 \n\t'), max_size=6)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**999, max_value=10**1000 - 1).map(lambda n: n * (-1) ** (n % 2))
    | st.floats()
    | _TEXT
)


_FLAT = st.integers() | _TEXT  # the values of a flat dict, a weight table say
_FLAT_LISTS = st.lists(_SCALARS, max_size=4) | st.lists(_SCALARS, max_size=4).map(tuple)
_KEYS = _TEXT | st.sampled_from(["%", "%s", "%d", "a%%b", "%(x)s", "\u00e9%", "\u2603", "k\U0001f600"])
_INTS = st.integers() | st.integers(min_value=10**999, max_value=10**1000 - 1)
_PLAIN = st.text(st.sampled_from("ab,0 %-~"), max_size=5)  # strs json writes as themselves
_ESCAPED = st.sampled_from(['"', "\\", "\x7f", "\x1f", "\u00e9"])  # strs it does not
_ODD = st.booleans() | st.floats() | st.none() | _ESCAPED | _TEXT | st.integers(min_value=10**999, max_value=10**1000 - 1)


@st.composite
def _pair_rows(draw):
    """Rows of one shape, (str, int) or (int, int), lists or tuples, in a list or tuple; maybe one entry odd."""
    first = draw(st.sampled_from([_PLAIN, _TEXT, _INTS]))
    rows = [draw(st.sampled_from([list, tuple]))(row) for row in draw(st.lists(st.tuples(first, _INTS), min_size=1, max_size=12))]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 1))
        row = list(rows[i])
        row[j] = draw(_ODD)
        rows[i] = row
    return draw(st.sampled_from([list, tuple]))(rows)


@st.composite
def _tables(draw):
    """A dict (or a list) of rows with one key set, each column int or str; maybe one row with an extra or a missing key, a bool or a str."""
    names = draw(st.lists(_KEYS, min_size=1, max_size=5, unique=True))
    columns = {k: draw(st.sampled_from([_INTS, _INTS, _PLAIN])) for k in names}
    rows = draw(st.dictionaries(_KEYS, st.fixed_dictionaries(columns), min_size=1, max_size=12))
    fault = draw(st.sampled_from([None, "extra", "missing", "bool", "str"]))
    if fault is not None:
        k = draw(st.sampled_from(sorted(rows)))
        row = rows[k] = dict(rows[k])
        name = draw(st.sampled_from(names))
        if fault == "extra":
            row[draw(_KEYS)] = draw(_INTS)
        elif fault == "missing":
            del row[name]
        else:
            row[name] = draw(st.booleans() if fault == "bool" else _TEXT)
    return rows if draw(st.booleans()) else list(rows.values())


def _nested(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(_FLAT_LISTS, max_size=6)
        | st.lists(_FLAT_LISTS, max_size=6).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4)
        | st.dictionaries(_TEXT, _FLAT, min_size=5, max_size=12)
        | st.dictionaries(_TEXT, _FLAT | st.booleans() | st.none() | st.floats(), max_size=12)
        | st.dictionaries(st.integers() | st.booleans() | st.floats(allow_nan=False), children, max_size=3)
        | st.dictionaries(st.none(), children, max_size=1)
        | _pair_rows()
        | st.dictionaries(_KEYS, _pair_rows(), max_size=10)
        | st.lists(_pair_rows(), max_size=10)
        | _tables()
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_SCALARS, _nested, max_leaves=30))
def test_emit_matches_json_dumps(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload)
    assert out.getvalue() == _json_reference(payload)


_ROW = {"z%d" % i: i - 3 if i % 2 else "v%d" % i for i in range(7)}
_INT_ROW = {"z%d" % i: i - 3 for i in range(7)}  # a row of the `abel map` values table


def _table(n=cli._MIN_ROWS, last=_INT_ROW):
    """n rows, keyed w0, w1, ...: copies of _INT_ROW, the last one replaced by last."""
    return {"w%d" % i: dict(_INT_ROW if i < n - 1 else last) for i in range(n)}


def _flat(x):
    """Whether x is a dict of five or more str keys with int or str values, as a weight table is."""
    return type(x) is dict and len(x) >= 5 and {type(k) for k in x} == {str} and {type(v) for v in x.values()} <= {int, str}


@pytest.mark.parametrize(
    "payload, joined",
    [
        ({"a": {"b": _ROW}}, 1),  # a flat dict at depth 3
        ({"a": [{"b": _ROW, "c": dict(_ROW, z9=10**40)}]}, 2),
        ({"a": {"b": dict(_ROW, z1=True)}}, 0),  # a bool, None or float: not flat
        ({"a": {"b": dict(_ROW, z1=None)}}, 0),
        ({"a": {"b": dict(_ROW, z1=0.5)}}, 0),
        ({"a": {"b": {k: _ROW[k] for k in list(_ROW)[:4]}}}, 0),  # nor are four entries
        ({"a": {"b": [[1, "x"], [], ("y", -2), (), [None, True, 1.5, 10**30]]}}, 0),  # a list of flat lists
        ({"a": [[[[1, [2]], ({"k": 0},)], []]]}, 0),  # lists of lists that are not flat
        ({"a": {"b": _table()}}, 0),  # a table of int rows with one key set: a template
        ({"a": {"b": list(_table(last=dict(_INT_ROW, z0=10**40)).values())}}, 0),
        ({"a": {"b": _table(cli._MIN_ROWS - 1)}}, cli._MIN_ROWS - 1),  # a shorter one: each row joined
        ({"a": {"b": _table(last=dict(_INT_ROW, z9=0))}}, cli._MIN_ROWS),  # an extra key
        ({"a": {"b": _table(last=dict(list(_INT_ROW.items())[1:], y=0))}}, cli._MIN_ROWS),  # another key set
        ({"a": {"b": list(_table(last=dict(_INT_ROW, z1="x")).values())}}, cli._MIN_ROWS),  # a str in an int column
        ({"a": {"b": list(_table(last=dict(_INT_ROW, z1=False)).values())}}, cli._MIN_ROWS - 1),  # a bool
    ],
)
def test_emit_fast_branches_at_depth(payload, joined, monkeypatch):
    """Flat dicts and lists of lists at depth are written as json.dumps writes them.

    joined counts the flat dicts that `_json_text` writes by the general
    join, one call each; a row template writes its rows with no call.
    """
    calls = []
    json_text = cli._json_text
    monkeypatch.setattr(cli, "_json_text", lambda x, ind="\n": calls.append(x) or json_text(x, ind))
    assert cli._json_text(payload) + "\n" == _json_reference(payload)
    assert sum(map(_flat, calls)) == joined


_DARTS = tuple(("e%d" % i, (-1) ** i) for i in range(cli._MIN_ROWS - 1)) + (("e%2", 1),)
_TERMS = [{"z": i, "w": 1, "coeff": "-%d/2" % i} for i in range(cli._MIN_ROWS)]


@pytest.mark.parametrize(
    "payload, templates",
    [
        ({"a": {"b": _DARTS}}, 1),  # darts: (str, int) rows, one template for the list
        ({"a": {"b": _DARTS[1:]}}, 0),  # fewer than _MIN_ROWS rows: the general join
        ({"a": {"b": [list(d) for d in _DARTS] + [(7, -7)]}}, 0),  # str and int in one column
        ({"a": {"b": {"f%d" % i: _DARTS[: 1 + i % 3] for i in range(cli._MIN_ROWS)}}}, 1),  # faces: one for the dict
        ({"a": {"b": dict({"f%d" % i: _DARTS for i in range(cli._MIN_ROWS)}, f7=())}}, 7),  # an empty face: one each
        ({"a": {"b": dict({"v%d" % i: [i, -i] for i in range(cli._MIN_ROWS)}, w=(2, 10**999), x=(3, 4))}}, 1),  # lifts
        ({"a": {"b": [[i, i + 1, i + 2] for i in range(cli._MIN_ROWS)]}}, 1),  # matrix rows
        ({"a": {"b": [[i, i + 1, i + 2] for i in range(cli._MIN_ROWS)] + [[4, 5]]}}, 0),  # rows of two lengths
        ({"a": {"b": _DARTS + (("e1", True),)}}, 0),  # a bool, None or float
        ({"a": {"b": _DARTS + (("e1", None),)}}, 0),
        ({"a": {"b": _DARTS + (("e1", 0.5),)}}, 0),
        ({"a": {"b": _DARTS + (('e"1', 1),)}}, 0),  # a str json escapes
        ({"a": {"b": _DARTS + (("e\\1", 1),)}}, 0),
        ({"a": {"b": _DARTS + (("e\x7f", 1),)}}, 0),
        ({"a": {"b": _DARTS + (("\u00e9", 1),)}}, 0),
        ({"a": {"b": _table()}}, 1),  # the `abel map` values table
        ({"a": {"b": _TERMS}}, 1),  # polynomial terms
        ({"a": {"b": _TERMS + [{"z": 1, "w": 0, "coeff": 7}]}}, 0),  # str and int in one column
        ({"a": {"b": _TERMS + [{"z": 1, "w": 0, "coeff": "\u00e9"}]}}, 0),  # a str json escapes
        ({"a": {"b": {"w%d" % i: {"x%d": i, "y": 2} for i in range(cli._MIN_ROWS)}}}, 1),  # % in a key of the template
        ({"a": {"b": {"w%d" % i: {"x": i} for i in range(cli._MIN_ROWS)}}}, 0),  # rows of one key
        ({"a": {"b": _table(last={("z%d" % i if i else "y"): 0 for i in range(7)})}}, 0),  # another key set of that size
    ],
)
def test_emit_row_templates_at_depth(payload, templates, monkeypatch):
    """How many containers one % template writes; every other one is written the general way."""
    written = []
    rows_text = cli._rows_text
    monkeypatch.setattr(cli, "_rows_text", lambda *args: _keep_if(written, rows_text(*args)))
    assert cli._json_text(payload) + "\n" == _json_reference(payload)
    assert len(written) == templates


def _keep_if(kept, text):
    if text is not None:
        kept.append(text)
    return text


def test_emit_refuses_keys_json_refuses():
    with pytest.raises(TypeError, match="not tuple"):
        json.dumps({(1, 2): 0}, indent=2)
    with pytest.raises(TypeError, match="not tuple"):
        cli._emit({(1, 2): 0})


@pytest.mark.parametrize(
    "name",
    ["honeycomb_x_2", "square_lattice_foo_3", "honeycomb_+2", "square_lattice_3 ", "honeycomb_01", "honeycomb_\u0662",
     "honeycomb_0", "square_lattice_-1", "honeycomb_", "honeycomb2"],
)
def test_catalog_names_are_strict(name, tmp_path, capsys, monkeypatch):
    """Only the bare name and name_k with k written as str(k), k >= 1, are catalog graphs; the rest are paths."""
    with pytest.raises(tg.UnknownCatalogEntry):
        tg.catalog(name)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["graph", "check", "--graph", name]) == 2
    assert "No such file" in capsys.readouterr().err


def test_catalog_names_resolve():
    for family, sides in (("honeycomb", 3), ("square_lattice", 4)):
        for k in (1, 2, 9, 10, 12):
            name = family if k == 1 else "%s_%d" % (family, k)
            assert tg.catalog(name).newton.edge_data()[0].multiplicity == k, name
            assert len(tg.catalog(name).newton.vertices) == sides
        assert tg.catalog(family + "_1").newton == tg.catalog(family).newton


def test_python_m_dimermod_runs_the_cli(tmp_path, capsys, monkeypatch):
    """`python -m dimermod` prints what cli.main prints and exits with its code."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    monkeypatch.chdir(tmp_path)
    for argv, code in ((["graph", "newton", "--graph", "honeycomb_2"], 0), (["graph", "check", "--graph", "honeycomb_01"], 2)):
        run = subprocess.run([sys.executable, "-m", "dimermod"] + argv, env=env, capture_output=True, text=True)
        assert (run.returncode, run.stdout) == _run(capsys, argv) and run.returncode == code, argv


def test_reader_closing_stdout_early_exits_141_without_a_traceback(tmp_path):
    """A reader that stops after 10 bytes: a report larger than the pipe's buffer exits 141, one that fits exits 0.

    stdout is block-buffered here, so the small report is written whole
    before the reader can close.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cli.__file__))
    for argv, code in ((["abel", "map", "--graph", "honeycomb_12"], 141), (["graph", "newton", "--graph", "honeycomb"], 0)):
        proc = subprocess.Popen(
            [sys.executable, "-m", "dimermod"] + argv, cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert (proc.wait(), len(head), err) == (code, 10, ""), argv


def test_catalog_graph_is_built_once_per_process():
    g = tg.resolve_graph("square_lattice_2")
    assert tg.resolve_graph("square_lattice_2") is g
    assert tg.catalog("square_lattice_2").graph is not g


def test_graph_file_is_read_on_every_call(tmp_path):
    path = tmp_path / "g.json"
    for name in ("honeycomb", "square_lattice"):
        path.write_text(json.dumps(tg.catalog(name).graph.to_json()))
        assert tg.resolve_graph(str(path)).to_json() == tg.catalog(name).graph.to_json()


def _shuffle_scripts(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import bench_inputs

    scripts = {name: bundled_script(name) for name in ("domino_shuffle", "translation_x", "translation_y")}
    scripts["shuffle_k2"] = bench_inputs.shuffle_script(2)
    return scripts


@pytest.mark.parametrize("command", ["apply", "phi"])
def test_scripts_leave_the_shared_base_graph_unchanged(command, tmp_path, capsys, monkeypatch):
    """A script run twice in one process gives the same bytes; its cached base is not spent."""
    for name, script in _shuffle_scripts(monkeypatch).items():
        s = _write(tmp_path, name + ".json", script)
        base = tg.resolve_graph(script["graph"])
        first = _run(capsys, ["shuffle", command, "--script", s])
        assert first[0] == 0 and _run(capsys, ["shuffle", command, "--script", s]) == first, name
        assert tg.resolve_graph(script["graph"]) is base
        fresh = tg.catalog(script["graph"]).graph
        assert base.to_json() == fresh.to_json(), name
        assert base.faces() == fresh.faces() and base.zigzags() == fresh.zigzags(), name


def test_cli_import_loads_no_openssl_and_every_traced_module(monkeypatch):
    """`hashlib` waits for verify-all; bench/bench_trace.py finds each module it wraps in sys.modules, and each name in its module."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import json, sys, dimermod.cli; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    loaded = json.loads(run.stdout)
    assert "hashlib" not in loaded and "_hashlib" not in loaded
    monkeypatch.syspath_prepend(BENCH)
    import bench_trace

    wrapped = {"dimermod." + mod for mod, _, _ in bench_trace.SPANS + bench_trace.COUNTERS}
    assert wrapped <= set(loaded)
    # as its Recorder looks each name up: a function on the module, a method in its class's __dict__
    for mod, attr, _ in bench_trace.SPANS + bench_trace.COUNTERS:
        home = importlib.import_module("dimermod." + mod)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(home, cls_name).__dict__, (mod, attr)
        else:
            assert callable(getattr(home, attr, None)), (mod, attr)


def test_polygon_commands_leave_the_graph_layers_unrun(tmp_path):
    """The six polygon commands run `intlin`, `polygon` and `groups` alone; the other layers wait, lazy, in sys.modules."""
    p = _write(tmp_path, "d.json", DIAMOND)
    thin = _write(tmp_path, "t.json", {"vertices": [[0, 0], [5, 0], [1, 1]]})
    argvs = [[*cmd, "--polygon", path] for path in (p, thin) for cmd in (
        ["polygon", "info"], ["group", "compute"], ["group", "torsion-lattice"], ["group", "pic0"],
        ["group", "max-translation-polygon"], ["bb", "find"],
    )]
    code = (
        "import contextlib, io, json, sys, types\n"
        "from dimermod import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in %r]\n"
        "run = sorted(n for n, m in sys.modules.items() if n.startswith('dimermod.') and type(m) is types.ModuleType)\n"
        "print(json.dumps([codes, run, sorted(n for n in sys.modules if n.startswith('dimermod.'))]))\n"
    ) % (argvs,)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    codes, run, present = json.loads(out.stdout)
    assert codes == [0] * 6 + [0, 0, 2, 2, 2, 2]
    assert run == ["dimermod.cli", "dimermod.groups", "dimermod.intlin", "dimermod.polygon"]
    assert set(present) - set(run) == {"dimermod.moves", "dimermod.spectral", "dimermod.suites", "dimermod.torusgraph"}


def test_suite_names_are_the_suites():
    assert list(cli.SUITE_NAMES) == sorted(suites.SUITES)
