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

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import regimelq
from regimelq.model import _FIELDS, validate
from regimelq.problemfile import ProblemFileError, parse_problem, write_problem

from reference import PROBLEMS

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
@example(("scalar", "replace", ("regimes", 0, "A"), {"a": 1.0}))
@example(("two_regime", "replace", ("regimes", 1, "sigma", 0), "abc"))
@example(("standard", "replace", ("regimes", 0, "G", 0, 0), math.nan))
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
        except ProblemFileError as exc:
            _, kind, where, _ = mutation
            if kind in ("drop", "replace") and len(where) >= 3 and where[0] == "regimes":
                # a bad value of a regime's field is named by regime and field
                assert f"regime {where[1] + 1}" in str(exc) and where[2] in str(exc), exc
            return
    assert validate(spec) == []
    assert 0.0 < spec.grid.h < math.inf


def _grid_variant(t0, T):
    text = TEXTS["scalar"].decode()
    assert "t0: 0.0, T: 1.0," in text
    return text.replace("t0: 0.0, T: 1.0,", f"t0: {t0}, T: {T},").encode()


def _scalar_variant(old, new):
    text = TEXTS["scalar"].decode()
    assert old in text
    return text.replace(old, new, 1).encode()


def _regime_variant(old, new):
    doc = yaml.safe_load(TEXTS["scalar"])
    doc["regimes"][0] = new if old is None else {**doc["regimes"][0], old: new}
    return yaml.safe_dump(doc, sort_keys=False).encode()


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
        (_scalar_variant("steps: 1000", "steps: 1000.9"), "grid.steps: cannot convert"),
        (_scalar_variant("steps: 1000", "steps: '1000'"), "grid.steps: expected a number"),
        (_scalar_variant("steps: 1000", "steps: true"), "grid.steps: expected a number"),
        (_scalar_variant("n: 1,", "n: true,"), "problem.n: expected a number"),
        (_scalar_variant("m: 1,", "m: '1',"), "problem.m: expected a number"),
        (_scalar_variant("m: 1,", "m: 1.5,"), "problem.m: cannot convert"),
        (_scalar_variant("regimes: 1", "regimes: false"), "problem.regimes: expected a number"),
        (_scalar_variant("regimes: 1", "regimes: 1.25"), "problem.regimes: cannot convert"),
        (_scalar_variant("t0: 0.0", "t0: false"), "grid.t0: expected a number"),
        (_scalar_variant("T: 1.0", "T: '1.0'"), "grid.T: expected a number"),
        (_regime_variant("A", {"a": 1}), "regime 1.A: float"),
        (_regime_variant("R", [["x"]]), "regime 1.R: could not convert"),
        (_regime_variant("g", [math.inf]), "regime 1.g: non-finite entries"),
        (_regime_variant(None, None), "regime 1: expected a mapping of fields"),
    ],
    ids=["utf8-lead", "utf8-splice", "T-inf", "t0-inf", "span-overflow", "steps-inf", "n-nan",
         "steps-fraction", "steps-string", "steps-bool", "n-bool", "m-string",
         "m-fraction", "regimes-bool", "regimes-fraction", "t0-bool", "T-string",
         "A-dict", "R-string", "g-inf", "regime-none"],
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



def test_one_per_node_regime_makes_its_field_per_node(tmp_path):
    doc = yaml.safe_load(TEXTS["two_regime"])
    steps = doc["grid"]["steps"]
    ramp = [[[0.3 + 0.001 * k]] for k in range(steps + 1)]
    doc["regimes"][0]["A"] = ramp
    path = tmp_path / "ramp.yaml"
    path.write_text(yaml.safe_dump(doc, sort_keys=False))
    spec, _ = parse_problem(path)
    const, _ = parse_problem(PROBLEMS / "two_regime.yaml")
    assert spec.A.strides[0] != 0 and spec.A.flags.c_contiguous
    assert np.array_equal(spec.A[:, 0, 0, 0], np.ravel(ramp))
    assert np.array_equal(spec.A[:, 1], const.A[:, 1])
    for name in _FIELDS:
        if name != "A":
            assert np.array_equal(getattr(spec, name), getattr(const, name)), name
            assert getattr(spec, name).strides[0] == 0 or name in ("G", "g"), name
    assert spec.gen.rates.strides[0] == 0


@pytest.mark.parametrize("which", sorted(TEXTS))
def test_writing_a_parsed_file_gives_its_bytes(tmp_path, which):
    spec, _ = parse_problem(PROBLEMS / f"{which}.yaml")
    write_problem(tmp_path / "out.yaml", spec, name=which)
    assert (tmp_path / "out.yaml").read_bytes() == TEXTS[which]
