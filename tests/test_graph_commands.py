"""The graph commands on the catalog graphs: pinned output bytes.

Each command's stdout, stderr and exit code over `honeycomb`,
`honeycomb_1..8`, `square_lattice` and `square_lattice_1..8` are hashed and
compared with SHA-256 digests recorded while the k-fold graphs were still
written out by hand, before they were built as covers of their base, so any
change of a vertex, edge, displacement, rotation, face or zig-zag name shows.
"""

import hashlib

import pytest

from dimermod import cli

COMMANDS = (
    ("graph", "export"),
    ("graph", "check"),
    ("graph", "newton"),
    ("abel", "map"),
)
NAMES = [
    "%s%s" % (family, suffix)
    for family in ("honeycomb", "square_lattice")
    for suffix in [""] + ["_%d" % k for k in range(1, 9)]
]
DIGESTS = {
    "graph export": "bec6cdbbb214d1eb4fe22e39733ae60b859f3b630a95cb794d766167667b254a",
    "graph check": "049b2d23bdf05b73a17353abaa1846d9bdc4029a5127a02ff4d604435ffc529d",
    "graph newton": "c5e85456c1647f77fa0a4c756f13cbe46f4fc7ce1aff4408731fc854e6fbf927",
    "abel map": "ecd3423c97895e850b0d68078742df9ea0bcc63fe329dbf665fdae5ed772d7a6",
}


def _outputs(capsys, command):
    """stdout, stderr and exit code of the command on each catalog graph, in one text."""
    parts = []
    for name in NAMES:
        code = cli.main(list(command) + ["--graph", name])
        captured = capsys.readouterr()
        parts.append("%d\n%s\n%s\n" % (code, captured.out, captured.err))
    return "".join(parts)


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_graph_command_bytes_are_pinned(command, capsys):
    text = _outputs(capsys, command)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[" ".join(command)]
