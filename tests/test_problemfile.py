"""Malformed problem files: rejected with ProblemFileError, never a traceback.

Each example starts from a bundled problem file and makes one mutation:
drop a key or list entry, replace any node with a value of the wrong
kind, cut the text short, or splice in bytes that are not UTF-8.  The
parser must raise ProblemFileError or return an admissible spec with a
finite, positive grid step; the CLI must exit 1 with one line on stderr.
"""

import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regimelq
from regimelq.model import validate
from regimelq.problemfile import ProblemFileError, parse_problem

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
TEXTS = {p.stem: p.read_bytes() for p in sorted(PROBLEMS.glob("*.yaml"))}
BAD_UTF8 = [b"\xff", b"\xfe\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"]
# Replacement nodes: no digits in the strings, so no mutation can ask
# for a huge grid or dimension.
WRONG_NODES = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.text(alphabet="abfinxy ", max_size=6),
    st.dictionaries(st.sampled_from(["n", "A", "t0"]), st.none() | st.floats(-2, 2), max_size=2),
    st.lists(st.floats(-2, 2) | st.lists(st.floats(-2, 2), max_size=3), max_size=3),
)


def _node_paths(node, path=()):
    """Path of every node of a parsed document, the root's () first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _node_paths(child, (*path, key))


@st.composite
def _mutations(draw):
    name = draw(st.sampled_from(sorted(TEXTS)))
    kind = draw(st.sampled_from(["drop", "replace", "cut", "splice"]))
    if kind in ("drop", "replace"):
        paths = list(_node_paths(yaml.safe_load(TEXTS[name])))
        path = draw(st.sampled_from(paths[1:] if kind == "drop" else paths))
        return name, kind, path, None if kind == "drop" else draw(WRONG_NODES)
    pos = draw(st.integers(0, len(TEXTS[name]) - 1))
    return name, kind, pos, None if kind == "cut" else draw(st.sampled_from(BAD_UTF8))


def _mutant(name, kind, where, value) -> bytes:
    text = TEXTS[name]
    if kind == "cut":
        return text[:where]
    if kind == "splice":
        return text[:where] + value + text[where:]
    doc = yaml.safe_load(text)
    if not where:
        return yaml.safe_dump(value).encode()
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[where[-1]]
    else:
        parent[where[-1]] = value
    return yaml.safe_dump(doc, sort_keys=False).encode()


@settings(max_examples=300)
@given(_mutations())
@example(("scalar", "replace", ("grid", "T"), math.inf))
@example(("standard", "replace", ("grid", "t0"), -math.inf))
@example(("two_regime", "replace", ("grid", "steps"), math.inf))
@example(("negative_r", "replace", ("problem", "n"), -math.inf))
@example(("two_regime", "splice", 40, b"\xff"))
def test_malformed_file_is_rejected_or_admissible(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.yaml"
        path.write_bytes(_mutant(*mutation))
        try:
            spec, _ = parse_problem(path)
        except ProblemFileError:
            return
    assert validate(spec) == []
    assert 0.0 < spec.grid.h < math.inf


def _grid_variant(t0, T):
    text = TEXTS["scalar"].decode()
    assert "t0: 0.0, T: 1.0," in text
    return text.replace("t0: 0.0, T: 1.0,", f"t0: {t0}, T: {T},").encode()


@pytest.mark.parametrize(
    "text, message",
    [
        (b"name: x\n\xff\xfe\n", "cannot read"),
        (TEXTS["scalar"][:40] + b"\xc3(" + TEXTS["scalar"][40:], "cannot read"),
        (_grid_variant("0.0", ".inf"), "need finite t0, T and T - t0"),
        (_grid_variant("-.inf", "1.0"), "need finite t0, T and T - t0"),
        (_grid_variant("-1.0e+308", "1.0e+308"), "need finite t0, T and T - t0"),
        (TEXTS["scalar"].replace(b"steps: 1000", b"steps: .inf"), "cannot convert"),
        (TEXTS["scalar"].replace(b"n: 1,", b"n: .nan,"), "cannot convert"),
    ],
    ids=["utf8-lead", "utf8-splice", "T-inf", "t0-inf", "span-overflow", "steps-inf", "n-nan"],
)
def test_cli_exits_1_with_one_line_on_malformed_file(tmp_path, text, message):
    problem = tmp_path / "bad.yaml"
    problem.write_bytes(text)
    with pytest.raises(ProblemFileError, match=message):
        parse_problem(problem)
    env = dict(os.environ, PYTHONPATH=str(Path(regimelq.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "regimelq.cli", "solve", "--problem", str(problem),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 1
    assert "Traceback" not in run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("problem file error: "), run.stderr
    assert message in lines[0]
