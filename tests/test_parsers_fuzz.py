"""Fuzz the file readers: arbitrary text either parses or raises GkmError or
ValueError, the two exceptions the CLI maps to exit code 2. Anything else
would surface as a raw traceback."""

import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkm.data import hide_labels, load_labels, load_libsvm, load_mask, synth_two_gaussians
from gkm.exceptions import GkmError
from gkm.graph import GraphSpec, build_fully_connected, read_edges
from gkm.kernel import KernelSpec
from gkm.losses import LossSpec, SmoothnessSpec
from gkm.optimizer import TrainConfig, load_model, save_model, train

# tokens near the formats' edges, so the fuzz reaches past the first token
INTS = st.sampled_from(["0", "1", "+1", "-1", "2", "99", "99999999999999999999"]) | st.integers().map(str)
FLOATS = st.sampled_from(["1.0", "0.5", "-1.5", "1e999", "nan", "inf", "-inf"]) | st.floats().map(repr)
WORDS = INTS | FLOATS | st.sampled_from(["x", "#", ":", "1:1:1", "end", "support"]) | st.text(max_size=4)
FEATURES = st.builds("{}:{}".format, INTS, FLOATS | WORDS)


def documents(line):
    return st.text() | st.lists(line | st.lists(WORDS, max_size=5).map(" ".join), max_size=8).map("\n".join)


LABELS = st.sampled_from(["+1", "-1", "0"]) | WORDS
LIBSVM_LINES = st.builds(lambda y, f: " ".join([y, *f]), LABELS, st.lists(FEATURES, max_size=3))
EDGE_LINES = st.tuples(INTS, INTS, FLOATS).map(" ".join)
READERS = [
    (load_libsvm, LIBSVM_LINES), (read_edges, EDGE_LINES), (load_mask, INTS), (load_labels, LABELS),
    (load_model, WORDS),
]


def parses_or_rejects(reader, text: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_text(text, encoding="utf-8")
        try:
            reader(path)
        except (GkmError, ValueError):
            pass


@lru_cache(maxsize=1)
def model_lines() -> tuple[str, ...]:
    full = synth_two_gaussians(12, 2, 4.0, seed=0)
    hidden, _ = hide_labels(full, 0.5, seed=0)
    cfg = TrainConfig(1.0, 0.1, LossSpec("hinge"), SmoothnessSpec(2.0), T=50)
    model, _ = train(hidden, build_fully_connected(hidden, GraphSpec("full", 1.0)), cfg,
                     KernelSpec(1.0, 1.0))
    with tempfile.TemporaryDirectory() as tmp:
        save_model(model, Path(tmp) / "m.txt")
        return tuple((Path(tmp) / "m.txt").read_text().splitlines())


@st.composite
def mutated_models(draw):
    """A valid model file with a few lines replaced, dropped or inserted."""
    lines = list(model_lines())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["replace", "drop", "insert"]))
        if op == "insert" or at == len(lines):
            lines.insert(at, draw(st.lists(WORDS, max_size=5).map(" ".join)))
        elif op == "drop":
            del lines[at]
        else:
            words = lines[at].split()
            if words:
                words[draw(st.integers(0, len(words) - 1))] = draw(WORDS | FEATURES)
            lines[at] = " ".join(words)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("reader, lines", READERS, ids=[r.__name__ for r, _ in READERS])
@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_reader_parses_or_rejects_arbitrary_text(reader, lines, data):
    parses_or_rejects(reader, data.draw(documents(lines)))


@given(text=mutated_models())
@settings(max_examples=300, deadline=None)
def test_load_model_parses_or_rejects_mutated_files(text):
    parses_or_rejects(load_model, text)


@pytest.mark.parametrize(
    "reader, text",
    [
        (load_libsvm, "+1 99999999999999999999:1\n"),
        (read_edges, "1 99999999999999999999 0.5\n"),
        (load_mask, "99999999999999999999\n"),
    ],
    ids=["load_libsvm", "read_edges", "load_mask"],
)
def test_index_beyond_int64_is_rejected(reader, text, tmp_path):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises((GkmError, ValueError)):
        reader(path)
