"""The command line's parser: help and usage bytes, help written to the
caller's stream, and arguments added only to the subcommand that runs.

The table below holds, for each argv, the exit code and the sha256 sums of
stdout and stderr, recorded with ``COLUMNS=80`` (argparse wraps help text
to the terminal width). It covers the top-level help, each subcommand's
help, and usage errors: no command, an unknown command, an unknown option
on four subcommands, bad choices, missing required arguments, refused
budget values and integer flags (--budget-n, --T, --c, --k) given digits
that are not ASCII or an underscore, which int() alone would read. A
change to any help string, option or parse message changes a digest;
when that is intended, record the new digests and say in CHANGES.md why
the text moved.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import subprocess
import sys
from collections import Counter

import pytest

from powerdom.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()
TREE = os.path.join(os.path.dirname(__file__), "data", "toy_tree.edges")
SUBCOMMANDS = ("solve", "ppt", "spread", "model", "decompose", "gadget", "check", "batch")

DIGESTS = {
    ("-h",):
        (0, "8d61dcea62d5a6beacae7eac9053466bc93aa7c20136982e6fa18a44f7cd84ed", EMPTY),
    ("solve", "-h"):
        (0, "4880f9b2c26425c5623bdb6926695630305706bf56f29722964e7c8cfec912e7", EMPTY),
    ("ppt", "-h"):
        (0, "4fb3b32a9bcb5de6afeaf09904eddd25324d04fdf52900ad07d29ad00a7a3304", EMPTY),
    ("spread", "-h"):
        (0, "dc956c380c7840711ca17c5d60eee125257076253183455cd5bb9d1b3037c9fd", EMPTY),
    ("model", "-h"):
        (0, "9573423933f84b6eb26e687d75a594b4446cc66b819ec8298ffc84fb44354725", EMPTY),
    ("decompose", "-h"):
        (0, "1775e886881afad1eeeeb5583239eb436fcf77b482ee77fa2f8bde54cd8ea887", EMPTY),
    ("gadget", "-h"):
        (0, "13354f6c3ce1b30d2c178429aa8a5bd207125ca0d9d95deb53a517c026742363", EMPTY),
    ("check", "-h"):
        (0, "232ab0de34836c5e7b36c146e9cc7ce32d70991a27252cd7e080344642c0596a", EMPTY),
    ("batch", "-h"):
        (0, "68127f35baf135c3709ab3601b5cdbb321563411b21542d7693d56cf8b0fdfea", EMPTY),
    ():
        (1, EMPTY, "6bdc5a66b95e3b0c4829c2f44b10d4eaf68d213ca65b661fc3e0205c4f18f72a"),
    ("frobnicate",):
        (1, EMPTY, "7ff0673841aedcc8ee6f04901245c96228255cae81eda344a99908cd36b6a204"),
    ("solve", "g.edges", "--bogus"):
        (1, EMPTY, "45e7fd827211e5282ad6ca295e2aa5fd86cec6c98ed4b47cdd933edb86d97506"),
    ("ppt", "g.edges", "--trace"):
        (1, EMPTY, "630e720a6135faa6faf8f781130812e0de183b3751d56dff005c1c7d816ceb27"),
    ("batch", "g.edges", "--all-optima"):
        (1, EMPTY, "5583f8ea3fbb6d53df2c2a0608ff72c938f4efbd6f7f17acb731941ffe1e70f5"),
    ("gadget", "--kind", "path-spread", "--bogus"):
        (1, EMPTY, "45e7fd827211e5282ad6ca295e2aa5fd86cec6c98ed4b47cdd933edb86d97506"),
    ("solve", "g.edges", "--method", "nope"):
        (1, EMPTY, "e8b13c7d94d9d3d9ae7bebc4fb298d66c123a3f4f57fac75747fec16950e4ef4"),
    ("spread", "g.edges", "--target", "a"):
        (1, EMPTY, "b0bc012cc67a2ba8253f955140564ac4c6c73ae3ab72152ebaa302f4e9d2c095"),
    ("check", "g.edges"):
        (1, EMPTY, "7b507b6ebec43972b9f86248e67f47d4f6b3f549ffde134dee83d25b2cb4f111"),
    ("gadget",):
        (1, EMPTY, "a95473018ed74ba33bf60e75b680bd648fd30dc121e72cc501c1579a70d22f0d"),
    ("batch",):
        (1, EMPTY, "e87426b8f4d3f93d1d869f2cc7afb6e87ffe2d4170184e44f9ecbdd4d6db16c1"),
    ("solve",):
        (1, EMPTY, "56e98db4f0210eae7da10fa5784dd906f6879009990f0fcbe68225fff50edfb4"),
    ("model", "g.edges", "--format", "pdf"):
        (1, EMPTY, "aeef2ede4256d4c14309e355ca639a41f406f915dc71abb3f7f93a23043fec45"),
    ("ppt", "g.edges", "--budget-n", "-1"):
        (1, EMPTY, "b1a4a05ea171c435bff7570a5984a722df404adc272e0168ff7348747165dc7a"),
    ("decompose", "g.edges", "--budget-seconds", "nan"):
        (1, EMPTY, "579803c55d4f87bb5b3b9e5bbf822b66cb362588d7e67852885af143d28aacce"),
    # usage error: argument --budget-n: invalid int value: '\u0662'
    ("ppt", "g.edges", "--budget-n", "\u0662"):
        (1, EMPTY, "37ba0ebff6a2eef7fdf29d29b727d334813d43f8dff8c6577b8f284d49c1fb55"),
    # usage error: argument --T: invalid int value: '1_0'
    ("solve", "g.edges", "--T", "1_0"):
        (1, EMPTY, "e2e4b732f4f01aa347abacc715e22a613bf5d182d8e9193733010ffc15087fd1"),
    ("model", "g.edges", "--T", "\u0661\u0660"):
        (1, EMPTY, "28063e46c8f6b6a416f59172dad080fd6b9f46c90d431bce9b57a5c8ebefbb65"),
    ("gadget", "--kind", "path-spread", "--c", "1_0"):
        (1, EMPTY, "33862d3da8bdf5e661c0082c9cbe6881dde9e1b6fb32df3c497b23ca38754607"),
    ("gadget", "--kind", "zf-reduction", "--k", "\u0663"):
        (1, EMPTY, "079568f329ba4360328b61657e5a71642e53f8ddd012396113a53f7fefe62ac3"),
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = main(list(argv), stdout=out, stderr=err, stdin=io.StringIO())
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def columns80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def argv_id(argv) -> str:
    return " ".join(argv) or "(none)"


@pytest.mark.parametrize("argv", sorted(DIGESTS), ids=argv_id)
def test_help_and_usage_bytes_match_recorded_digest(argv, columns80):
    code, out, err = run(argv)
    assert (code, sha(out), sha(err)) == DIGESTS[argv]


@pytest.mark.parametrize("argv", [("-h",)] + [(name, "-h") for name in SUBCOMMANDS], ids=argv_id)
def test_help_goes_to_the_callers_stdout(argv, capsys):
    """-h returns 0 with the help in the stdout given to main; nothing
    reaches the process's own streams and no SystemExit escapes."""
    code, out, err = run(argv)
    prog = " ".join(("powerdom",) + argv[:-1])
    assert (code, err) == (0, "") and out.startswith(f"usage: {prog} [-h]")
    assert capsys.readouterr() == ("", "")


def test_help_of_the_module_entry_point(columns80):
    """``python -m powerdom ppt -h`` prints the recorded bytes and exits 0."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "powerdom", "ppt", "-h"], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, check=False)
    assert (done.returncode, hashlib.sha256(done.stdout).hexdigest(), done.stderr) == (
        0, DIGESTS["ppt", "-h"][1], b"")


@pytest.mark.parametrize("argv,chosen", [
    (("-h",), None), (("frobnicate",), None), ((), None),
    (("ppt", TREE), "ppt"), (("check", TREE, "--set", "c1,c2"), "check"),
] + [((name, "-h"), name) for name in SUBCOMMANDS], ids=[
    "-h", "frobnicate", "(none)", "ppt run", "check run"] + [f"{name} -h" for name in SUBCOMMANDS])
def test_one_call_adds_arguments_to_the_chosen_subcommand_only(argv, chosen, monkeypatch):
    """Building every subcommand's arguments on every call cost more than
    an oracle op's search; only the parser argparse dispatches to gets
    arguments beyond -h, and with no valid command none does."""
    added = Counter()
    add_argument = argparse._ActionsContainer.add_argument

    def counting(container, *args, **kwargs):
        if args != ("-h", "--help"):
            added[getattr(container, "prog", None)] += 1
        return add_argument(container, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    run(argv)
    assert set(added) == (set() if chosen is None else {f"powerdom {chosen}"})
