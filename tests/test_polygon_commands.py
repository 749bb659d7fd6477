"""The six polygon commands: pinned output bytes and the forms they take.

The corpus is seeded and bench-shaped: per bounding-box rung b8..b128 two
round polygons, the second dilated by 2 or 3, and two lattice-width-1
(genus 0) polygons, then polygons of `random_convex_polygon`.  Each
command's stdout, stderr and exit code over the whole corpus are hashed and
compared with SHA-256 digests recorded before the sides, the plane basis and
the genus-0 closed form were rewritten, so any change of a byte shows.
"""

import hashlib
import json
import math
import random

import pytest

from dimermod import cli, intlin, polygon as poly

COMMANDS = (
    ("polygon", "info"),
    ("group", "compute"),
    ("group", "torsion-lattice"),
    ("group", "pic0"),
    ("group", "max-translation-polygon"),
    ("bb", "find"),
)
RUNGS = (8, 16, 32, 64, 128)
DIGESTS = {
    "polygon info": "1ee278d18e7b4218278700a14fd9e8c8999a1c864f3057c35f0a36e6a4cf2ed0",
    "group compute": "12886040dc751101918dd7bb6d40020b1a05d495049b4be50da3ec6f1479c60c",
    "group torsion-lattice": "ad90d88f20949ffd51089ac96a1a9f7a7252863f509e3d4bf8377b6a95a9485b",
    "group pic0": "002f54de9a05c99de34be088dea55bfdb32010790b9f07b43a3b4e2c21a4b77d",
    "group max-translation-polygon": "450175503e36e23db68b3eb649be2b8327c18bb08ceba3147ce4e8cd020c00d9",
    "bb find": "372e810b4031ad46dcff3e9fcd0822dd7729745c67045de0e3048c290c62915d",
}


def _hull(points):
    """The convex hull's vertices from the lex-smallest, moved to the origin."""
    vs = poly.convex_hull(points)
    base = min(vs)
    return [[x - base[0], y - base[1]] for x, y in vs]


def round_polygon(rng, s):
    """The hull of eight jittered points on the circle inscribed in [0, s]^2."""
    c = s / 2
    pts = []
    for i in range(8):
        t = 2 * math.pi * (i + 0.5 * rng.random() - 0.25) / 8
        pts.append((round(c + c * math.cos(t)), round(c + c * math.sin(t))))
    return _hull(pts)


def thin_polygon(rng, s):
    """A quadrilateral of lattice width 1, sheared and turned to fill a box of side ~s."""
    a = rng.randint(max(1, s // 2), s)
    b = rng.randint(0, s - 1)
    c = rng.randint(b, s)
    pts = [(x, x + y) for x, y in [(0, 0), (a, 0), (c, 1), (b, 1)]]
    for _ in range(rng.randrange(4)):
        pts = [(-y, x) for x, y in pts]
    return _hull(pts)


def corpus(seed=26, randoms=240):
    """Vertex lists: round and thin polygons per rung, then random convex polygons."""
    rng = random.Random(seed)
    out = []
    for s in RUNGS:
        for i in range(2):
            f = 1 if i == 0 else rng.choice((2, 3))
            out.append([[f * x, f * y] for x, y in round_polygon(rng, s // f)])
        out += [thin_polygon(rng, s) for _ in range(2)]
    for k in range(randoms):
        p = poly.random_convex_polygon(rng, bound=(8, 16, 40)[k % 3])
        out.append([list(v) for v in p.vertices])
    return out


def _outputs(capsys, tmp_path, command, polygons):
    """stdout, stderr and exit code of the command on each polygon, in one text."""
    parts = []
    for k, vs in enumerate(polygons):
        path = tmp_path / ("p%d.json" % k)
        path.write_text(json.dumps({"vertices": vs}))
        code = cli.main(list(command) + ["--polygon", str(path)])
        captured = capsys.readouterr()
        parts.append("%d\n%s\n%s\n" % (code, captured.out, captured.err))
    return "".join(parts)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_polygon_command_bytes_are_pinned(command, capsys, tmp_path):
    text = _outputs(capsys, tmp_path, command, corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[" ".join(command)]


def test_polygon_commands_take_no_column_hermite_form(capsys, tmp_path, monkeypatch):
    # every matrix of a polygon command has two columns, whose plane basis is
    # one pass of extended gcds, and G_N without an interior point is closed
    # form, so the general Hermite form is never taken
    calls = []
    for name in ("column_hermite", "smith_normal_form"):
        monkeypatch.setattr(intlin, name, lambda b, name=name, f=getattr(intlin, name): calls.append(name) or f(b))
    polygons = corpus(randoms=30)
    for command in COMMANDS:
        _outputs(capsys, tmp_path, command, polygons)
    assert "column_hermite" not in calls and "smith_normal_form" in calls
    thin = [vs for vs in polygons if poly.genus(poly.validate_polygon(vs)) == 0]
    assert len(thin) >= 10
    for vs in thin:
        calls.clear()
        text = _outputs(capsys, tmp_path, ("group", "compute"), [vs])
        assert text.startswith("0\n") and '"case": "no_interior_point"' in text
        assert calls == ["smith_normal_form"], vs  # the ambient quotient A, and no more
