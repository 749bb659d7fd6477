"""Self-test of the benchmark's output checkers.

Each case runs one small dimermod CLI command, checks that the checker accepts
its output, then corrupts one field and checks that the checker rejects it.
"""

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import bench_checks as ck  # noqa: E402
import bench_inputs as bi  # noqa: E402
from dimermod import cli  # noqa: E402

DIAMOND = [(0, -1), (1, 0), (0, 1), (-1, 0)]
TRIANGLE3 = [(0, 0), (3, 0), (0, 3)]


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return json.loads(buf.getvalue())


def polygon_file(tmp_path, vertices):
    path = tmp_path / "polygon.json"
    path.write_text(json.dumps({"vertices": vertices}))
    return str(path)


def weights_file(tmp_path, weights):
    path = tmp_path / "weights.json"
    path.write_text(json.dumps(weights))
    return str(path)


def graph_ctx(name, newton=None):
    data = bi._catalog_json(name)
    ctx = {"graph": ck.Graph(data), "minimal": True}
    if newton is not None:
        ctx.update(newton=newton, area2=ck.area2(newton))
    return ctx


def bump(x):
    return str(Fraction(x) + 1)


def case_torsion_doubled(tmp_path):
    out = run_cli("group", "compute", "--polygon", polygon_file(tmp_path, DIAMOND))
    assert out["torsion"] == [2]
    bad = dict(out, torsion=[4])
    return lambda o: ck.check_group_compute(o, DIAMOND), out, bad


def case_lattice_index(tmp_path):
    out = run_cli("group", "torsion-lattice", "--polygon", polygon_file(tmp_path, DIAMOND))
    return lambda o: ck.check_torsion_lattice(o, DIAMOND), out, dict(out, index_over_H1=out["index_over_H1"] + 1)


def case_pic0_rank(tmp_path):
    out = run_cli("group", "pic0", "--polygon", polygon_file(tmp_path, TRIANGLE3))
    return lambda o: ck.check_pic0(o, TRIANGLE3), out, dict(out, rank=out["rank"] + 1)


def case_max_translation_area(tmp_path):
    out = run_cli("group", "max-translation-polygon", "--polygon", polygon_file(tmp_path, DIAMOND))
    bad = copy.deepcopy(out)
    bad["polygon"]["vertices"] = [[2 * x, 2 * y] for x, y in out["polygon"]["vertices"]]
    return lambda o: ck.check_max_translation(o, DIAMOND), out, bad


def case_building_block_too_big(tmp_path):
    out = run_cli("bb", "find", "--polygon", polygon_file(tmp_path, TRIANGLE3))
    bad = {"vertices": [list(v) for v in TRIANGLE3]}
    return lambda o: ck.check_building_block(o, TRIANGLE3), out, bad


def case_minimal_flipped(tmp_path):
    out = run_cli("graph", "check", "--graph", "square_lattice")
    ctx = graph_ctx("square_lattice", bi.diamond(1))
    return lambda o: ck.check_graph_check(o, ctx), out, dict(out, minimal=False)


def case_doubled_reported_minimal(tmp_path):
    data = bi.doubled_edge(bi._catalog_json("square_lattice"), "h0,0")
    path = tmp_path / "doubled.json"
    path.write_text(json.dumps(data))
    out = run_cli("graph", "check", "--graph", str(path))
    ctx = {"graph": ck.Graph(data), "minimal": False}
    bad = {k: v for k, v in out.items() if k != "certificate"}
    bad["minimal"] = True
    return lambda o: ck.check_graph_check(o, ctx), out, bad


def case_newton_vertex(tmp_path):
    out = run_cli("graph", "newton", "--graph", "honeycomb_2")
    ctx = graph_ctx("honeycomb_2", bi.triangle(2))
    bad = copy.deepcopy(out)
    bad["polygon"]["vertices"][1][0] += 1
    return lambda o: ck.check_graph_newton(o, ctx), out, bad


def case_abel_divisor(tmp_path):
    out = run_cli("abel", "map", "--graph", "square_lattice")
    ctx = graph_ctx("square_lattice")
    bad = copy.deepcopy(out)
    bad["div_chi_10"]["z0"] += 1
    return lambda o: ck.check_abel_map(o, ctx), out, bad


def _spectral(tmp_path, normalized):
    data = bi._catalog_json("honeycomb_2")
    weights = {e["id"]: "%d/3" % (i + 1) for i, e in enumerate(data["edges"])}
    argv = ["spectral", "poly", "--graph", "honeycomb_2", "--weights", weights_file(tmp_path, weights)]
    out = run_cli(*(argv + ["--normalized"] if normalized else argv))
    g, w = ck.Graph(data), ck.parse_weights(weights)
    ctx = {"graph": g, "weights": w, "normalized": normalized, "matchings": ck.matching_sums(g, w)}
    bad = copy.deepcopy(out)
    bad["terms"][-1]["coeff"] = bump(bad["terms"][-1]["coeff"])
    return lambda o: ck.check_spectral_poly(o, ctx), out, bad


def case_coefficient_off_by_one(tmp_path):
    return _spectral(tmp_path, False)


def case_normalized_coefficient_off_by_one(tmp_path):
    return _spectral(tmp_path, True)


def _shuffle(tmp_path, name):
    with open(os.path.join(bi.DATA, name + ".json")) as fh:
        script = json.load(fh)
    data = bi._catalog_json(script["graph"])
    weights = {e["id"]: "%d/2" % (i + 1) for i, e in enumerate(data["edges"])}
    out = run_cli("shuffle", "apply", "--script", os.path.join(bi.DATA, name + ".json"), "--weights", weights_file(tmp_path, weights))
    ctx = {
        "graph": ck.Graph(data),
        "weights": ck.parse_weights(weights),
        "translation": tuple(script["closing"]["translation"]),
        "kind": "shuffle" if name == "domino_shuffle" else "translation",
        "family_sums": {"value": copy.deepcopy(out["profile"]["per_edge"])},
    }
    return lambda o: ck.check_shuffle_apply(o, ctx), out


def case_family_sum_changed(tmp_path):
    check, out = _shuffle(tmp_path, "domino_shuffle")
    bad = copy.deepcopy(out)
    bad["profile"]["per_edge"]["1"] += 1
    return check, out, bad


def case_family_sums_permuted(tmp_path):
    check, out = _shuffle(tmp_path, "domino_shuffle")
    bad = copy.deepcopy(out)
    pe = bad["profile"]["per_edge"]
    pe["0"], pe["3"] = pe["3"], pe["0"]
    return check, out, bad


def case_weight_changed(tmp_path):
    check, out = _shuffle(tmp_path, "domino_shuffle")
    bad = copy.deepcopy(out)
    e = sorted(bad["weights"])[0]
    bad["weights"][e] = bump(bad["weights"][e])
    return check, out, bad


def case_translation_reported_nontrivial(tmp_path):
    check, out = _shuffle(tmp_path, "translation_x")
    return check, out, dict(out, trivial=False)


CASES = [v for k, v in sorted(globals().items()) if k.startswith("case_")]


@pytest.mark.parametrize("case", CASES, ids=[c.__name__[5:] for c in CASES])
def test_checker_accepts_output_and_rejects_corruption(case, tmp_path):
    check, good, bad = case(tmp_path)
    check(good)
    with pytest.raises(ck.CheckError):
        check(bad)


def test_declared_metrics_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = list(run.LAYER_METRICS) + run.rung_metrics() + list(run.TRACE_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == declared
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
