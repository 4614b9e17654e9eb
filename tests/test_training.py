import weakref
from dataclasses import MISSING, fields

import numpy as np
import pytest

from qisa_lab import training
from qisa_lab.cli import DEFAULT_TRAIN, preset_config
from qisa_lab.data import Vocab, batch_iter, split_dataset
from qisa_lab.errors import CacheMissError, ConfigError, ContractError, InsufficientDataError, NumericError
from qisa_lab.model import LanguageModel, ModelConfig
from qisa_lab.tensor import Tensor
from qisa_lab.training import (
    Adam,
    DivergenceGuard,
    TrainConfig,
    clip_gradients,
    evaluate_ce,
    evaluate_cer_wer,
    generate,
    train,
    train_step,
)


def tiny_model(vocab_size=7, variant="csa", **kw):
    defaults = dict(vocab_size=vocab_size, m=4, H=1, n_layers=1, l=8, variant=variant, seed=0)
    defaults.update(kw)
    return LanguageModel(ModelConfig(**defaults))


def tiny_dataset(rng, n=400, vocab_size=7):
    ids = rng.integers(0, vocab_size, size=n)
    return split_dataset(ids)


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([("p", p)], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_constant_gradient_approaches_lr_sign(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.01)
        last = p.data.copy()
        for _ in range(500):
            p.grad = np.array([3.7])
            opt.step()
        delta = last - p.data  # moved in +grad direction scaled by ~lr
        step = None
        before = p.data.copy()
        p.grad = np.array([3.7])
        opt.step()
        step = before - p.data
        assert abs(step[0] - 0.01) < 1e-4  # lr * sign(g)

    def test_quadratic_convergence(self):
        target = 3.0
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=1e-2)
        for step in range(2000):
            p.grad = 2 * (p.data - target)  # d/dp (p - target)^2
            opt.step()
            if abs(p.data[0] - target) < 1e-6:
                break
        assert abs(p.data[0] - target) < 1e-6
        assert step < 2000

    def test_nan_gradient_aborts(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        opt = Adam([("p", p)])
        with pytest.raises(NumericError, match="'p'"):
            opt.step()

    def test_step_returns_the_norm_before_clipping(self):
        for max_norm in (None, 1.0):
            p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
            p.grad = np.array([3.0, 4.0])
            assert Adam([("p", p)]).step(max_norm) == 5.0

    def test_clip_gradients_without_a_norm_only_measures(self):
        grad = np.full(4, 10.0)
        assert clip_gradients(grad, None) == 20.0
        np.testing.assert_array_equal(grad, 10.0)

    def test_clip_gradients(self):
        grad = np.full(7, 10.0)
        norm = clip_gradients(grad, max_norm=1.0)
        assert norm == pytest.approx(np.sqrt(700.0))
        assert np.sqrt((grad**2).sum()) == pytest.approx(1.0)
        np.testing.assert_allclose(grad, 1.0 / np.sqrt(7.0))

    def test_nan_gradient_of_a_models_last_parameter_names_it(self):
        model = tiny_model(variant="qisa")
        opt = Adam(model.named_parameters())
        for t in model.parameters():
            t.grad = np.zeros(t.shape)
        name, last = model.named_parameters()[-1]
        last.grad[0, 0] = np.nan  # its first entry: the boundary an off-by-one misreads
        with pytest.raises(NumericError, match=f"'{name}'"):
            opt.step()

    def test_step_moves_the_models_own_forward(self, rng):
        model = tiny_model()
        ids = rng.integers(0, 7, size=(2, 8))
        opt = Adam(model.named_parameters(), lr=1e-2)
        before = model.forward(ids).data.copy()
        train_step(model, opt, ids, ids, 1.0)
        assert np.abs(model.forward(ids).data - before).max() > 1e-4

    def test_a_second_optimizer_still_trains_the_model(self, rng):
        model = tiny_model()
        ids = rng.integers(0, 7, size=(2, 8))
        train_step(model, Adam(model.named_parameters()), ids, ids, 1.0)
        opt = Adam(model.named_parameters(), lr=1e-2)
        hash_before = model.parameter_hash()
        losses = [train_step(model, opt, ids, ids, 1.0)[0] for _ in range(20)]
        assert model.parameter_hash() != hash_before
        assert losses[-1] < losses[0]


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=-1)
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"learning_rate": 1e-3})

    @pytest.mark.parametrize("field,value", [
        ("epochs", "x"), ("epochs", True), ("batch", 2.0), ("eval_every", -1), ("seed", "0"),
        ("lr", "x"), ("lr", True), ("lr", 0), ("lr", float("inf")), ("eps", None), ("eps", -1e-8),
        ("grad_clip", 0.0), ("grad_clip", "1"), ("betas", [0.9]), ("betas", [0.9, 1.0]),
        ("betas", "ab"), ("betas", [False, 0.9]),
    ])
    def test_bad_types(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig.from_dict({field: value})

    def test_defaults_are_the_cli_defaults(self):
        """A train section that leaves a field out trains as one with no train section."""
        assert TrainConfig() == TrainConfig.from_dict(DEFAULT_TRAIN)
        assert TrainConfig.from_dict({"batch": 64}).lr == DEFAULT_TRAIN["lr"] == 3e-3

    def test_preset_model_fields_are_the_model_config_defaults(self):
        """A preset sets its variant and shape; every other model field is ModelConfig's default."""
        model = preset_config("emb16-h4-qsann_v2")["model"]
        assert set(model) == {f.name for f in fields(ModelConfig) if f.default is not MISSING}
        assert ModelConfig(vocab_size=5, **model) == ModelConfig(vocab_size=5, variant="qsann_v2", m=16, H=4)

    def test_accepts_integer_rates_and_no_clipping(self):
        cfg = TrainConfig.from_dict({"lr": 1, "eps": 1, "grad_clip": None, "betas": [0, 0.5]})
        assert cfg.betas == (0, 0.5) and cfg.grad_clip is None


class TestDivergenceGuard:
    def test_trips_after_patience(self):
        from qisa_lab.errors import TrainingDiverged

        guard = DivergenceGuard(factor=10.0, patience=5)
        guard.check(1.0)
        for _ in range(4):
            guard.check(11.0)
        with pytest.raises(TrainingDiverged):
            guard.check(11.0)

    def test_streak_resets_on_recovery(self):
        guard = DivergenceGuard(factor=10.0, patience=3)
        guard.check(1.0)
        for _ in range(10):
            guard.check(11.0)
            guard.check(11.0)
            guard.check(2.0)  # recovery resets the streak


class TestTrainLoop:
    def test_single_step_smoke(self, rng):
        model = tiny_model()
        data = tiny_dataset(rng)
        cfg = TrainConfig(epochs=1, batch=len(data.train_ids) - model.config.l, eval_every=0, seed=1)
        model, rows = train(model, data, cfg, log_every=0)
        train_rows = [r for r in rows if r[1] == "train"]
        assert [r[2] for r in train_rows] == ["ce", "grad_norm", "step_s", "tok_s"]
        assert np.isfinite([r[3] for r in train_rows]).all()
        step_s, tok_s = train_rows[2][3], train_rows[3][3]
        assert step_s > 0 and tok_s == pytest.approx(cfg.batch * model.config.l / step_s)

    @pytest.mark.parametrize("grad_clip", [None, 1e-3])
    def test_rows_carry_the_gradient_norm_before_clipping(self, rng, grad_clip):
        data = tiny_dataset(rng)
        cfg = TrainConfig(epochs=1, batch=64, eval_every=0, seed=1, grad_clip=grad_clip)
        _, rows = train(tiny_model(), data, cfg, log_every=0)
        ce = [(r[0], r[3]) for r in rows if r[1:3] == ("train", "ce")]
        norms = [(r[0], r[3]) for r in rows if r[1:3] == ("train", "grad_norm")]
        assert [step for step, _ in norms] == [step for step, _ in ce] == list(range(len(ce)))
        # the first step's norm, from the same batch on a fresh model
        model = tiny_model()
        inputs, targets = next(batch_iter(data.train_ids, model.config.l, 64, seed=1))
        loss, norm, _ = train_step(model, Adam(model.named_parameters()), inputs, targets, None)
        assert (loss, norm) == (ce[0][1], norms[0][1])
        assert norm > 1e-3  # so the clipped run did clip

    def test_loss_decreases_on_learnable_corpus(self, rng):
        text = "abcdefg" * 200
        vocab = Vocab.from_text(text)
        data = split_dataset(vocab.encode(text))
        model = tiny_model(vocab_size=vocab.size)
        cfg = TrainConfig(epochs=4, batch=32, lr=1e-2, eval_every=0, seed=0)
        model, rows = train(model, data, cfg, log_every=0)
        train_losses = [r[3] for r in rows if r[1:3] == ("train", "ce")]
        assert np.mean(train_losses[-5:]) < 0.5 * np.mean(train_losses[:5])
        mean, _ = evaluate_ce(model, data.test_ids)
        assert mean < 0.5  # periodic corpus is almost fully predictable

    def test_deterministic_replay(self, rng):
        curves = []
        for _ in range(2):
            model = tiny_model(seed=3)
            data = tiny_dataset(np.random.default_rng(0))
            cfg = TrainConfig(epochs=1, batch=64, eval_every=0, seed=3)
            _, rows = train(model, data, cfg, log_every=0)
            curves.append([r[3] for r in rows if r[1] == "train" and r[2] not in ("step_s", "tok_s")])
        assert curves[0] == curves[1]

    def test_each_steps_logits_stay_alive_until_the_next_step(self, rng, monkeypatch):
        """train() holds a step's logits until the next step has run, which keeps
        the top of the heap in use between steps (see the comment in train)."""
        refs, alive_at_next_step = [], []

        def step(*args):
            alive_at_next_step.extend(ref() is not None for ref in refs)
            out = train_step(*args)
            refs[:] = [weakref.ref(out[2])]
            return out

        monkeypatch.setattr(training, "train_step", step)
        train(tiny_model(), tiny_dataset(rng), TrainConfig(epochs=1, batch=64, eval_every=0), log_every=0)
        assert len(alive_at_next_step) >= 3 and all(alive_at_next_step)

    def test_writes_checkpoint(self, rng, tmp_path):
        model = tiny_model()
        data = tiny_dataset(rng)
        vocab = Vocab(tuple("abcdefg"))
        cfg = TrainConfig(epochs=1, batch=256, eval_every=0)
        train(model, data, cfg, checkpoint_path=tmp_path / "ck", vocab=vocab, log_every=0)
        loaded, chars = LanguageModel.load(tmp_path / "ck")
        assert chars == list("abcdefg")


class TestEvaluateCE:
    def test_untrained_near_log_vocab(self, rng):
        model = tiny_model(vocab_size=13)
        ids = rng.integers(0, 13, size=500)
        mean, std = evaluate_ce(model, ids)
        assert abs(mean - np.log(13)) / np.log(13) < 0.1
        assert std >= 0

    def test_single_char_corpus_is_free(self):
        model = tiny_model(vocab_size=1)
        ids = np.zeros(100, dtype=int)
        mean, _ = evaluate_ce(model, ids)
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_matches_training_loss_on_same_windows(self, rng):
        model = tiny_model(vocab_size=9)
        l = model.config.l
        ids = rng.integers(0, 9, size=3 * (l + 1))
        mean, _ = evaluate_ce(model, ids)
        starts = [0, l + 1, 2 * (l + 1)]
        inputs = np.stack([ids[s : s + l] for s in starts])
        targets = np.stack([ids[s + 1 : s + l + 1] for s in starts])
        direct = train_step(model, Adam(model.named_parameters()), inputs, targets, None)[0]
        assert abs(mean - direct) < 1e-12

    def test_too_short(self):
        model = tiny_model()
        with pytest.raises(InsufficientDataError):
            evaluate_ce(model, np.zeros(4, dtype=int))

    def test_cached_matches_plain(self, rng):
        model = tiny_model(vocab_size=9, variant="qsann_v2")
        ids = rng.integers(0, 9, size=200)
        plain = evaluate_ce(model, ids, batch=7)
        cached = evaluate_ce(model, ids, batch=7, cache=model.build_observable_cache())
        assert cached == pytest.approx(plain, abs=1e-10)

    def test_stale_cache_raises(self, rng):
        model = tiny_model(vocab_size=9, variant="qisa")
        cache = model.build_observable_cache()
        model.blocks[0].attn.wv_tilde[0].data[0, 0] += 1.0
        with pytest.raises(CacheMissError):
            evaluate_ce(model, rng.integers(0, 9, size=200), cache=cache)

    def test_cache_of_another_variant_raises(self, rng):
        v1 = tiny_model(vocab_size=9, variant="qsann_v1")
        v2 = tiny_model(vocab_size=9, variant="qsann_v2")
        with pytest.raises(CacheMissError, match="qsann_v1.*qsann_v2"):
            evaluate_ce(v2, rng.integers(0, 9, size=200), cache=v1.build_observable_cache())

    def test_cache_checked_once_per_call(self, rng, monkeypatch):
        """evaluate_ce and evaluate_cer_wer hash the parameters once per
        call, not once per forward; without a cache they build the
        coefficients once per call."""
        model = tiny_model(vocab_size=9, variant="qisa_a", n_layers=2)
        cache = model.build_observable_cache()
        calls, builds = [], []
        real_hash = LanguageModel.parameter_hash
        monkeypatch.setattr(LanguageModel, "parameter_hash", lambda self: calls.append(1) or real_hash(self))
        weights = type(model.blocks[0].attn)
        real_coefficients = weights.coefficients
        monkeypatch.setattr(weights, "coefficients", lambda self: builds.append(1) or real_coefficients(self))
        ids = rng.integers(0, 9, size=200)
        vocab = Vocab(tuple("abcdefghi"))
        evaluate_ce(model, ids, batch=3, cache=cache)  # eight forwards
        assert len(calls) == 1
        evaluate_cer_wer(model, ids, vocab, n_windows=2, gen_chars=5, cache=cache)
        assert len(calls) == 2
        assert not builds
        evaluate_ce(model, ids, batch=3)  # one build per layer
        assert len(builds) == 2
        evaluate_cer_wer(model, ids, vocab, n_windows=2, gen_chars=5)
        assert len(builds) == 4

    def test_std_matches_recomputation(self, rng):
        model = tiny_model(vocab_size=9)
        l = model.config.l
        ids = rng.integers(0, 9, size=10 * (l + 1))
        mean, std = evaluate_ce(model, ids)
        per_window = []
        for s in range(0, 10 * (l + 1), l + 1):
            m_i, _ = evaluate_ce(model, ids[s : s + l + 1])
            per_window.append(m_i)
        assert std == pytest.approx(float(np.std(per_window)), abs=1e-12)
        assert mean == pytest.approx(float(np.mean(per_window)), abs=1e-12)


class TestGenerate:
    def test_greedy_deterministic(self, rng):
        model = tiny_model()
        prompt = rng.integers(0, 7, size=4)
        a = generate(model, prompt, 20)
        b = generate(model, prompt, 20)
        np.testing.assert_array_equal(a, b)
        assert len(a) == 20

    def test_sampling_deterministic_with_seed(self, rng):
        model = tiny_model()
        prompt = rng.integers(0, 7, size=4)
        a = generate(model, prompt, 15, mode="sample", temperature=1.0, seed=9)
        b = generate(model, prompt, 15, mode="sample", temperature=1.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_ids_in_vocab(self, rng):
        model = tiny_model()
        out = generate(model, rng.integers(0, 7, size=8), 30)
        assert out.min() >= 0 and out.max() < 7

    def test_sliding_window_past_context(self, rng):
        model = tiny_model(l=4)
        out = generate(model, rng.integers(0, 7, size=4), 12)
        assert len(out) == 12

    def test_bad_n_chars(self):
        model = tiny_model()
        with pytest.raises(ContractError, match="--n-chars"):
            generate(model, np.array([0]), 0)

    def test_bad_seed(self):
        with pytest.raises(ConfigError, match="--seed"):
            generate(tiny_model(), np.array([0]), 2, mode="sample", seed=-1)

    def test_bad_mode(self):
        model = tiny_model()
        with pytest.raises(ConfigError):
            generate(model, np.array([0]), 2, mode="beam")


class TestEvaluateCerWer:
    def test_echo_model_is_perfect(self, rng):
        # a model stub that always continues with the true text scores 0
        text = "the quick brown fox jumps over the lazy dog " * 40
        vocab = Vocab.from_text(text)
        ids = vocab.encode(text)

        class Echo:
            config = ModelConfig(vocab_size=vocab.size, m=4, H=1, n_layers=1, l=8, variant="csa")

            def coefficients(self, cache=None):
                return None

            def forward(self, window, cache=None):
                # emit logits that argmax to the character that truly follows
                b, t = window.shape
                logits = np.zeros((b, t, vocab.size))
                for r in range(b):
                    pos = _find_continuation(ids, window[r])
                    logits[r, -1, pos] = 10.0
                return Tensor(logits)

        def _find_continuation(stream, window):
            t = len(window)
            for s in range(len(stream) - t):
                if np.array_equal(stream[s : s + t], window):
                    return stream[s + t]
            return 0

        (cer_m, cer_s), (wer_m, wer_s) = evaluate_cer_wer(Echo(), ids, vocab, n_windows=3, gen_chars=16)
        assert cer_m == 0.0 and wer_m == 0.0

    def test_untrained_model_has_high_error(self, rng):
        text = "words of some variety appear here " * 60
        vocab = Vocab.from_text(text)
        ids = vocab.encode(text)
        model = tiny_model(vocab_size=vocab.size)
        (cer_m, _,), (wer_m, _) = evaluate_cer_wer(model, ids, vocab, n_windows=4, gen_chars=24)
        assert cer_m > 0.5
        assert wer_m > 0.5

    def test_composition_matches_direct_metric_calls(self, rng):
        from qisa_lab.metrics import cer as cer_fn, wer as wer_fn

        text = "abcabcabcabc abc abc " * 30
        vocab = Vocab.from_text(text)
        ids = vocab.encode(text)
        model = tiny_model(vocab_size=vocab.size)
        l, g = model.config.l, 12
        (cer_m, _), (wer_m, _) = evaluate_cer_wer(model, ids, vocab, n_windows=2, gen_chars=g)
        span = l + g
        starts = np.unique(np.linspace(0, len(ids) - span, 2).astype(int))
        cers, wers = [], []
        for s in starts:
            ref = vocab.decode(ids[s + l : s + span])
            hyp = vocab.decode(generate(model, ids[s : s + l], g))
            cers.append(cer_fn(ref, hyp))
            wers.append(wer_fn(ref, hyp))
        assert cer_m == pytest.approx(np.mean(cers))
        assert wer_m == pytest.approx(np.mean(wers))

    def test_stale_cache_raises(self):
        text = "abcabcabcabc abc abc " * 30
        vocab = Vocab.from_text(text)
        model = tiny_model(vocab_size=vocab.size, variant="qisa")
        cache = model.build_observable_cache()
        model.blocks[0].attn.wv_tilde[0].data[0, 0] += 1.0
        with pytest.raises(CacheMissError):
            evaluate_cer_wer(model, vocab.encode(text), vocab, n_windows=2, gen_chars=4, cache=cache)

    def test_insufficient_data(self):
        model = tiny_model()
        vocab = Vocab(tuple("ab"))
        with pytest.raises(InsufficientDataError):
            evaluate_cer_wer(model, np.zeros(50, dtype=int), vocab, n_windows=100, gen_chars=64)

    def test_no_word_in_any_reference(self):
        """WER is undefined when every reference continuation is whitespace."""
        text = "ab" + " \n" * 60
        vocab = Vocab.from_text(text)
        model = tiny_model(vocab_size=vocab.size)
        with pytest.raises(InsufficientDataError, match="--windows.*--gen-chars"):
            evaluate_cer_wer(model, vocab.encode(text), vocab, n_windows=3, gen_chars=4)
