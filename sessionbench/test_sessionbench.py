"""Tests of the session benchmark: its oracles, its tracer and a small run of each workload.

    python3 -m pytest sessionbench
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import oracles
import session
import tracing
from tracing import Target, Tracer, graph_nodes, layer_metrics, self_times

from qisa_lab.tensor import Tensor, _toposort, gelu, matmul

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


# -- oracles -----------------------------------------------------------------


@pytest.mark.parametrize("a, b, dist", [
    ("kitten", "sitting", 3),
    ("flaw", "lawn", 2),
    ("", "", 0),
    ("abc", "", 3),
    ("", "ab", 2),
    ("abc", "abc", 0),
    ("ab", "ba", 2),
    (["to", "be", "or"], ["to", "or"], 1),
    (["a", "b"], ["c", "d", "e"], 3),
])
def test_edit_distance_hand_cases(a, b, dist):
    assert oracles.edit_distance(a, b) == dist
    assert oracles.edit_distance(b, a) == dist


def test_cer_wer_hand_case():
    # "abcd" -> "abce": 1 substitution in 4 chars, 1 of 1 words wrong.
    # "ab cd" -> "ab": 3 deletions in 5 chars, 1 of 2 words missing.
    # "  " has no word, so it counts toward CER only: 2 insertions in 2 chars.
    cer, wer = oracles.cer_wer(["abcd", "ab cd", "  "], ["abce", "ab", "xy  "])
    assert cer == pytest.approx((1 / 4 + 3 / 5 + 2 / 2) / 3, abs=1e-15)
    assert wer == pytest.approx((1 / 1 + 1 / 2) / 2, abs=1e-15)


def test_window_ce_hand_cases():
    # two equal logits: ln 2 per position; logits (ln 3, 0): -ln(3/4) for target 0
    logits = np.array([[[0.0, 0.0], [math.log(3.0), 0.0]]])
    ce = oracles.window_ce(logits, np.array([[1, 0]]))
    assert ce.shape == (1,)
    assert ce[0] == pytest.approx((math.log(2.0) - math.log(0.75)) / 2, abs=1e-15)


def test_log_softmax_is_stable_for_large_logits():
    out = oracles.log_softmax(np.array([[1000.0, 1000.0, 0.0]]))
    assert np.isfinite(out).all()
    assert out[0, 0] == pytest.approx(-math.log(2.0), abs=1e-12)


def test_split_and_ce_windows():
    test_ids = oracles.split_test_ids(np.arange(20), 0.5)
    assert test_ids.tolist() == list(range(10, 20))
    inputs, targets = oracles.ce_windows(test_ids, 3)
    assert inputs.tolist() == [[10, 11, 12], [14, 15, 16]]
    assert targets.tolist() == [[11, 12, 13], [15, 16, 17]]


def test_cer_wer_starts_are_evenly_spaced():
    # linspace(0, 100 - 20, 4) = 0, 26.7, 53.3, 80
    assert oracles.cer_wer_starts(100, 16, 4, 4).tolist() == [0, 26, 53, 80]


def test_greedy_continue_follows_the_argmax():
    vocab = 7

    def next_is_plus_one(ids):
        out = np.zeros(ids.shape + (vocab,))
        out[..., :] = -1.0
        np.put_along_axis(out, ((ids + 1) % vocab)[..., None], 1.0, axis=-1)
        return out

    cont = oracles.greedy_continue(next_is_plus_one, np.array([[0, 1], [5, 6]]), 3, l=2)
    assert cont.tolist() == [[2, 3, 4], [0, 1, 2]]


def test_sha256_file(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert oracles.sha256_file(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_read_corpus_ids_keeps_line_endings(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"a\r\nb")
    assert oracles.read_corpus_ids(path, ["\n", "\r", "a", "b"]).tolist() == [2, 1, 0, 3]


# -- tracing -----------------------------------------------------------------


def _span(name, parent, start, end, tag=None):
    return [name, tag, parent, start, end, 0.0]


def test_self_times_subtract_direct_children():
    spans = [_span("root", -1, 0.0, 10.0), _span("child", 0, 2.0, 5.0),
             _span("grandchild", 1, 3.0, 4.0), _span("child", 0, 6.0, 7.0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_graph_nodes_matches_the_tapes_toposort():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    w = Tensor(np.ones((3, 2)), requires_grad=True)
    loss = (gelu(matmul(a, w)) * 2.0 + a.sum()).sum()
    assert graph_nodes(loss) == len(_toposort(loss))


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x, cache=None):
        return mod.inner(x) * 2

    def numbers(n):
        yield from range(n)

    mod.inner, mod.outer, mod.numbers = inner, outer, numbers
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    return mod


def test_tracer_records_nested_spans_and_restores(fake_module):
    originals = (fake_module.inner, fake_module.outer, fake_module.numbers)
    tracer = Tracer()
    tracer.install([Target("fake_layer:outer", "outer", tag=tracing._attention_tag),
                    Target("fake_layer:inner", "inner"),
                    Target("fake_layer:numbers", "numbers", generator=True)])
    assert fake_module.outer(1, cache="c") == 4
    assert list(fake_module.numbers(2)) == [0, 1]
    tracer.uninstall()
    assert (fake_module.inner, fake_module.outer, fake_module.numbers) == originals

    names = [(s[tracing.NAME], s[tracing.TAG], s[tracing.PARENT]) for s in tracer.spans]
    # the generator opens one span per next(), the last one ending the iteration
    assert names == [("outer", "cached", -1), ("inner", None, 0),
                     ("numbers", None, -1), ("numbers", None, -1), ("numbers", None, -1)]
    assert all(s[tracing.END] >= s[tracing.START] for s in tracer.spans)


def test_tracer_reports_missing_targets_as_absent(fake_module):
    tracer = Tracer()
    tracer.install([Target("fake_layer:gone", "gone"), Target("fake_layer:Cls.method", "m"),
                    Target("no_such_module_anywhere:fn", "fn")])
    assert tracer.absent == ["fake_layer:gone", "fake_layer:Cls.method", "no_such_module_anywhere:fn"]
    metrics = layer_metrics(tracer.spans, train_steps=0)
    assert set(metrics) == {m.name for m in tracing.LAYER_METRICS}
    assert all(m["value"] == 0.0 for m in metrics.values())


def test_layer_metrics_scopes_and_measures():
    spans = [
        _span(tracing.TRAIN_PHASE, -1, 0.0, 10.0),
        _span("backward", 0, 1.0, 3.0),
        _span("backward", 0, 5.0, 9.0),
        _span(tracing.ROUND_PHASE, -1, 20.0, 30.0),
        _span("forward", 3, 21.0, 25.0, tag="cached"),
        _span("attention", 4, 22.0, 24.0, tag="cached"),
        _span("quadform", 5, 22.5, 23.0),
        _span("ansatz", -1, 40.0, 41.0),
    ]
    spans[1][tracing.COUNT], spans[2][tracing.COUNT] = 100, 300
    m = {k: v["value"] for k, v in layer_metrics(spans, train_steps=2).items()}
    assert m["tensor.backward_ms"] == pytest.approx(3000.0)  # (2 s + 4 s) / 2 steps
    assert m["tensor.graph_nodes"] == 200.0
    assert m["model.cached_forward_ms"] == pytest.approx(4000.0)
    assert m["model.infer_forward_ms"] == 0.0
    assert m["attention.cached_self_ms"] == pytest.approx(1500.0)
    assert m["qsim.quadform_calls"] == 1.0
    assert m["qsim.ansatz_calls"] == 1.0  # session scope: outside any phase counts too


# -- small runs of every workload --------------------------------------------

END_TO_END = {"setup_s", "train_tok_s", "cache_build_s", "eval_s", "eval_cached_s",
              "gen_char_s", "peak_rss_mb"}


def test_benchmark_json_lists_what_the_runs_report():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(session.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == [m.name for m in tracing.LAYER_METRICS]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(session.WORKLOADS))
def test_smoke_run(name, trace, tmp_path, capsys):
    result = session.run(session.WORKLOADS[name].smoke(), seed=5, seconds=0, trace=trace,
                         runs_dir=tmp_path)
    out = capsys.readouterr().out
    assert result["correct"], out
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = {m.name for m in tracing.LAYER_METRICS} if trace else END_TO_END
    assert set(result["metrics"]) == expected
    assert "absent" not in out
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out.count("checkpoint ") == len(session.WORKLOADS[name].parts)
    assert list(tmp_path.iterdir()) == []  # the run's files are removed


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "csa-m16",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
