"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 6's full reproduction (2 epochs, batch 1024, a complete
public-domain corpus) runs for hours and is exposed through the CLI
(`qisa-lab train --preset emb16-h1-qisa --full --corpus ...`); the
gating check here is its reduced preset: the bundled corpus, one epoch,
batch 256, identical seeds for both variants.
"""

import warnings

import numpy as np
import pytest

from qisa_lab.attention import VARIANTS, AttentionSpec, AttentionWeights, count_params
from qisa_lab.data import BUNDLED_CORPUS, build_vocab, load_corpus, split_dataset
from qisa_lab.metrics import cer, wer
from qisa_lab.model import LanguageModel, ModelConfig
from qisa_lab.qsim import AnsatzParams, hea_unitary, pauli_matrix, select_observables
from qisa_lab.tensor import Tensor, cross_entropy, no_grad
from qisa_lab.training import TrainConfig, evaluate_ce, evaluate_cer_wer, train

REDUCED_TRAIN = dict(epochs=1, batch=256, lr=3e-3, eval_every=0, seed=0)
QUANTUM_VARIANTS = [v for v in VARIANTS if v != "csa"]


@pytest.fixture(scope="session")
def corpus_split():
    text = load_corpus(BUNDLED_CORPUS)
    vocab = build_vocab(text)
    return vocab, split_dataset(vocab.encode(text))


@pytest.fixture(scope="session")
def m4_trained(corpus_split):
    """Every variant trained at m=4 on the reduced preset (one epoch)."""
    vocab, split = corpus_split
    out = {}
    for variant in VARIANTS:
        model = LanguageModel(ModelConfig(vocab_size=vocab.size, m=4, H=1, n_layers=6, l=16,
                                          variant=variant, p=1, seed=0))
        model, rows = train(model, split, TrainConfig(**REDUCED_TRAIN), log_every=0)
        out[variant] = (model, [r[3] for r in rows if r[1:3] == ("train", "ce")])
    return out


@pytest.fixture(scope="session")
def m16_trained(corpus_split):
    """CSA and QISA at the m=16 configuration of the reduced preset."""
    vocab, split = corpus_split
    out = {}
    for variant in ("csa", "qisa"):
        model = LanguageModel(ModelConfig(vocab_size=vocab.size, m=16, H=1, n_layers=6, l=16,
                                          variant=variant, p=1, seed=0))
        model, _ = train(model, split, TrainConfig(**REDUCED_TRAIN), log_every=0)
        out[variant] = model
    return out


def test_criterion_1_parameter_count_exactness():
    checked = 0
    for variant in VARIANTS:
        for m in (4, 16):
            for H in (1, 4):
                for p in (1, 2, 3):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        spec = AttentionSpec(variant, m=m, H=H, l=16, p=p)
                        w = AttentionWeights(spec, np.random.default_rng(0))
                    per_head = sum(t.size for name, t in w.named_parameters()
                                   if name.startswith("head0."))
                    assert per_head == count_params(spec), (variant, m, H, p)
                    checked += 1
    assert count_params(AttentionSpec("qisa", m=16, H=1, l=16)) == 768
    assert count_params(AttentionSpec("csa", m=16, H=1, l=16)) == 768
    print(f"\nPASS criterion 1: introspected counts match the per-head formulas "
          f"for {checked} variant/m/H/p combinations (QISA = CSA = 768 at m=16, H=1)")


def test_criterion_2_cache_equivalence(m4_trained):
    rng = np.random.default_rng(42)
    worst = 0.0
    for variant in QUANTUM_VARIANTS:
        model, _ = m4_trained[variant]
        cache = model.build_observable_cache()
        for _ in range(100):
            ids = rng.integers(0, model.config.vocab_size, size=(4, 16))
            with no_grad():
                direct = model.forward(ids).data
                cached = model.forward(ids, cache=cache).data
            err = float(np.abs(direct - cached).max())
            worst = max(worst, err)
            assert err < 1e-10, (variant, err)
    print(f"\nPASS criterion 2: cached inference matches the training-path forward "
          f"for trained {QUANTUM_VARIANTS} at m=4; worst abs err {worst:.2e} over 100 batches each")


def test_criterion_3_causality_suite():
    rng = np.random.default_rng(7)
    worst = 0.0
    for variant in VARIANTS:
        model = LanguageModel(ModelConfig(vocab_size=13, m=4, H=1, n_layers=2, l=8,
                                          variant=variant, p=1, seed=0))
        ids1 = rng.integers(0, 13, size=8)
        for i in (0, 3, 6):
            ids2 = ids1.copy()
            ids2[i + 1:] = rng.integers(0, 13, size=7 - i)
            with no_grad():
                l1 = model.forward(ids1).data
                l2 = model.forward(ids2).data
            err = float(np.abs(l1[: i + 1] - l2[: i + 1]).max())
            worst = max(worst, err)
            assert err < 1e-12, (variant, i, err)
    print(f"\nPASS criterion 3: all six variants keep positions <= i unchanged when "
          f"tokens > i are replaced (l=8, m=4); worst abs diff {worst:.2e}")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(11)
    worst = {}
    for variant in VARIANTS:
        model = LanguageModel(ModelConfig(vocab_size=5, m=4, H=1, n_layers=1, l=4,
                                          variant=variant, p=1, seed=0))
        ids = rng.integers(0, 5, size=(2, 4))
        targets = rng.integers(0, 5, size=(2, 4))

        def loss_value():
            with no_grad():
                logits = model.forward(ids)
            return cross_entropy(Tensor(logits.data.reshape(8, 5)), targets.reshape(-1)).item()

        logits = model.forward(ids)
        loss = cross_entropy(logits.reshape(8, 5), targets.reshape(-1))
        loss.backward()

        worst_rel = 0.0
        for name, t in model.named_parameters():
            assert t.grad is not None, (variant, name)
            numeric = np.zeros_like(t.data)
            flat, nflat = t.data.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-5
                hi = loss_value()
                flat[i] = orig - 1e-5
                lo = loss_value()
                flat[i] = orig
                nflat[i] = (hi - lo) / 2e-5
            denom = max(np.abs(t.grad).max(), np.abs(numeric).max(), 1e-10)
            rel = float(np.abs(t.grad - numeric).max() / denom)
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-3, (variant, name, rel)
        worst[variant] = worst_rel
    summary = ", ".join(f"{v}={worst[v]:.1e}" for v in VARIANTS)
    print(f"\nPASS criterion 4: end-to-end analytic gradients match central finite "
          f"differences for every parameter of every variant (worst rel err: {summary})")


def test_criterion_5_quantum_sim_properties():
    rng = np.random.default_rng(3)
    # ansatz unitarity for 100 random angle sets
    worst_u = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        u = hea_unitary(AnsatzParams.random(rng, n, p))
        worst_u = max(worst_u, float(np.abs(u.conj().T @ u - np.eye(2**n)).max()))
    assert worst_u < 1e-12

    # Pauli expectations of random unit states stay in [-1, 1]
    for _ in range(100):
        n = int(rng.integers(1, 4))
        word = "".join(rng.choice(list("IXYZ"), size=n))
        v = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        v /= np.linalg.norm(v)
        val = float(np.real(np.vdot(v, pauli_matrix(word) @ v)))
        assert -1 - 1e-12 <= val <= 1 + 1e-12

    # odd-Y congruence expectations vanish identically
    odd = [p for p in (select_observables(2, 15, "unitary")) if p.y_parity == 1]
    worst_odd = 0.0
    for _ in range(100):
        w = rng.normal(size=(4, 4))
        x = rng.normal(size=4)
        for p_str in odd:
            val = abs(np.real(x @ w.T @ pauli_matrix(p_str) @ w @ x))
            worst_odd = max(worst_odd, val)
    assert worst_odd < 1e-12
    print(f"\nPASS criterion 5: ansatz unitarity (worst {worst_u:.1e}), Pauli expectation "
          f"bounds, and odd-Y congruence nullity (worst {worst_odd:.1e}) over 100 draws each")


def test_criterion_6_directional_reduced_preset(corpus_split, m16_trained):
    vocab, split = corpus_split
    ce = {}
    for variant, model in m16_trained.items():
        mean, std = evaluate_ce(model, split.test_ids)
        ce[variant] = mean
    assert ce["qisa"] < ce["csa"], ce
    (cer_q, _), (wer_q, _) = evaluate_cer_wer(m16_trained["qisa"], split.test_ids, vocab,
                                              n_windows=50, gen_chars=64)
    (cer_c, _), (wer_c, _) = evaluate_cer_wer(m16_trained["csa"], split.test_ids, vocab,
                                              n_windows=50, gen_chars=64)
    print(f"\nPASS criterion 6 (reduced preset): test CE qisa {ce['qisa']:.4f} < csa "
          f"{ce['csa']:.4f} (gap {ce['csa'] - ce['qisa']:.4f}); informational CER "
          f"qisa {cer_q:.3f} / csa {cer_c:.3f}, WER qisa {wer_q:.3f} / csa {wer_c:.3f}; "
          f"the 2x-CE full reproduction is the CLI --full run")


def test_criterion_7_loss_curve_shape(m4_trained):
    window = 50
    drops = {}
    for variant in VARIANTS:
        _, losses = m4_trained[variant]
        assert len(losses) >= 2 * window, f"{variant}: only {len(losses)} steps"
        smoothed = np.convolve(losses, np.ones(window) / window, mode="valid")
        assert smoothed[0] > smoothed[-1], (variant, smoothed[0], smoothed[-1])
        drops[variant] = smoothed[0] - smoothed[-1]
    summary = ", ".join(f"{v}={drops[v]:.3f}" for v in VARIANTS)
    print(f"\nPASS criterion 7: window-{window} smoothed train loss decreases over "
          f"epoch 1 for every variant at m=4 (drop: {summary})")


def test_criterion_8_metric_oracles(rng):
    def dp_reference(a, b):
        d = np.zeros((len(a) + 1, len(b) + 1), dtype=int)
        d[:, 0] = np.arange(len(a) + 1)
        d[0, :] = np.arange(len(b) + 1)
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                d[i, j] = min(d[i - 1, j] + 1, d[i, j - 1] + 1,
                              d[i - 1, j - 1] + (a[i - 1] != b[j - 1]))
        return int(d[-1, -1])

    alphabet = list("abcde ")
    for _ in range(1000):
        a = "".join(rng.choice(alphabet, size=rng.integers(1, 14)))
        b = "".join(rng.choice(alphabet, size=rng.integers(0, 14)))
        expect_cer = dp_reference(a, b) / len(a)
        assert cer(a, b) == expect_cer
        if a.split():
            expect_wer = dp_reference(a.split(), b.split()) / len(a.split())
            assert wer(a, b) == expect_wer
    print("\nPASS criterion 8: cer/wer agree exactly with an independent full-matrix "
          "DP edit distance on 1000 random string pairs")


def test_criterion_9_timing_structure(tmp_path):
    import csv as csv_mod

    from qisa_lab.cli import main

    out_dir = tmp_path / "bench"
    rc = main(["bench", "--variants", "csa,qisa", "--m", "16", "--layers", "6",
               "--batch", "32", "--warmup", "2", "--steps", "10",
               "--out-dir", str(out_dir)])
    assert rc == 0
    with open(out_dir / "bench.csv") as fh:
        rows = list(csv_mod.reader(fh))
    assert rows[0] == ["variant", "phase", "stat", "value"]
    medians = {(r[0], r[1]): float(r[3]) for r in rows[1:] if r[2] == "median_s"}
    assert {("csa", "train"), ("csa", "infer"), ("qisa", "train"), ("qisa", "infer"),
            ("qisa", "infer_cached")} <= set(medians)
    cached, uncached = medians[("qisa", "infer_cached")], medians[("qisa", "infer")]
    assert cached < uncached, medians
    print(f"\nPASS criterion 9 (informational): bench CSV emitted; cached qisa inference "
          f"{cached * 1e3:.1f} ms/step vs uncached {uncached * 1e3:.1f} ms/step "
          f"({uncached / cached:.1f}x); absolute ratios are hardware-specific")
