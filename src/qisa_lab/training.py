"""Adam training loop, cross-entropy evaluation, generation, CER/WER suite."""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .data import SplitDataset, Vocab, batch_iter
from .errors import ConfigError, ContractError, InsufficientDataError, NumericError, TrainingDiverged
from .metrics import cer, wer
from .model import LanguageModel, is_number
from .qsim import ObservableCache
from .tensor import Tensor, cross_entropy, no_grad, softmax_rows

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = 1
    batch: int = 256
    lr: float = 3e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    grad_clip: float | None = 1.0
    eval_every: int = 50
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "batch", "eval_every", "seed"):
            val, low = getattr(self, name), 1 if name in ("epochs", "batch") else 0
            if not isinstance(val, int) or isinstance(val, bool) or val < low:
                raise ConfigError(f"train.{name} must be an integer >= {low}, got {val!r}")
        clip = [] if self.grad_clip is None else [("grad_clip", self.grad_clip)]  # None: no clipping
        for name, val in [("lr", self.lr), ("eps", self.eps)] + clip:
            if not is_number(val) or not 0 < val < np.inf:
                raise ConfigError(f"train.{name} must be a positive number, got {val!r}")
        if (not isinstance(self.betas, (list, tuple)) or len(self.betas) != 2
                or not all(is_number(b) and 0 <= b < 1 for b in self.betas)):
            raise ConfigError(f"train.betas must be two numbers in [0, 1), got {self.betas!r}")
        self.betas = tuple(self.betas)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown train config fields: {sorted(unknown)}")
        return cls(**d)


class Adam:
    """Standard Adam with bias correction over named parameter tensors."""

    def __init__(self, named_params, lr=3e-4, betas=(0.9, 0.999), eps=1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(t.data) for _, t in self.named_params]
        self.v = [np.zeros_like(t.data) for _, t in self.named_params]

    def step(self) -> None:
        self.t += 1
        for i, (name, p) in enumerate(self.named_params):
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient in parameter {name!r} at step {self.t}")
            self.m[i] = self.b1 * self.m[i] + (1 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1 - self.b2) * g**2
            m_hat = self.m[i] / (1 - self.b1**self.t)
            v_hat = self.v[i] / (1 - self.b2**self.t)
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_gradients(params, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most ``max_norm``."""
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = np.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


class DivergenceGuard:
    """Abort when the loss stays above ``factor`` x its initial value for
    ``patience`` consecutive steps."""

    def __init__(self, factor: float = 10.0, patience: int = 100):
        self.factor = factor
        self.patience = patience
        self.initial: float | None = None
        self.streak = 0
        self.step = 0

    def check(self, value: float) -> None:
        if self.initial is None:
            self.initial = value
        if value > self.factor * self.initial:
            self.streak += 1
            if self.streak >= self.patience:
                raise TrainingDiverged(
                    f"loss {value:.3f} stayed above {self.factor:g}x the initial "
                    f"{self.initial:.3f} for {self.patience} consecutive steps (step {self.step})")
        else:
            self.streak = 0
        self.step += 1


@dataclass
class MetricsReport:
    ce: tuple[float, float]
    cer: tuple[float, float] | None = None
    wer: tuple[float, float] | None = None
    steps: int = 0
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        out = {"ce_mean": self.ce[0], "ce_std": self.ce[1],
               "steps": self.steps, "wall_time_s": self.wall_time}
        if self.cer is not None:
            out.update(cer_mean=self.cer[0], cer_std=self.cer[1])
        if self.wer is not None:
            out.update(wer_mean=self.wer[0], wer_std=self.wer[1])
        return out


def _batch_ce(model: LanguageModel, inputs: np.ndarray, targets: np.ndarray, training=False) -> Tensor:
    b, t = inputs.shape
    logits = model.forward(inputs, training=training)
    return cross_entropy(logits.reshape(b * t, model.config.vocab_size), targets.reshape(-1))


def train(
    model: LanguageModel,
    data: SplitDataset,
    cfg: TrainConfig,
    *,
    checkpoint_path=None,
    vocab: Vocab | None = None,
    checkpoint_extra: dict | None = None,
    log_every: int = 50,
) -> tuple[LanguageModel, list[tuple]]:
    """Optimize the model; returns loss-curve rows (step, split, metric, value).

    Training aborts if the loss stays above 10x its initial value for 100
    consecutive steps.  A checkpoint is written at the end when a path is
    given.
    """
    l = model.config.l
    opt = Adam(model.named_parameters(), lr=cfg.lr, betas=cfg.betas, eps=cfg.eps)
    rows: list[tuple] = []
    step = 0
    guard = DivergenceGuard()
    start = time.perf_counter()
    for epoch in range(cfg.epochs):
        for inputs, targets in batch_iter(data.train_ids, l, cfg.batch, seed=cfg.seed + epoch):
            model.zero_grad()
            loss = _batch_ce(model, inputs, targets, training=True)
            value = loss.item()
            guard.check(value)
            loss.backward()
            if cfg.grad_clip is not None:
                clip_gradients([t for _, t in opt.named_params], cfg.grad_clip)
            opt.step()
            rows.append((step, "train", "ce", value))
            if cfg.eval_every and step % cfg.eval_every == 0 and len(data.test_ids) > l:
                mean, _ = evaluate_ce(model, data.test_ids)
                rows.append((step, "test", "ce", mean))
            if log_every and step % log_every == 0:
                log.info("step %d train ce %.4f", step, value)
            step += 1
    elapsed = time.perf_counter() - start
    log.info("trained %d steps in %.1fs", step, elapsed)
    if len(data.test_ids) > l:
        mean, _ = evaluate_ce(model, data.test_ids)
        rows.append((step, "test", "ce", mean))
    if checkpoint_path is not None:
        model.save(checkpoint_path, vocab_chars=list(vocab.chars) if vocab else None,
                   extra=checkpoint_extra)
    return model, rows


def evaluate_ce(model: LanguageModel, test_ids: np.ndarray, batch: int = 64,
                cache: ObservableCache | None = None) -> tuple[float, float]:
    """Mean and std of next-token CE over non-overlapping context-sized test windows."""
    l = model.config.l
    span = l + 1
    starts = [i * span for i in range(len(test_ids) // span)]
    if not starts:
        raise InsufficientDataError(f"test split of {len(test_ids)} ids has no full {span}-id window")
    losses = []
    with no_grad():
        coeffs = model.coefficients(cache)
        for lo in range(0, len(starts), batch):
            chunk = starts[lo : lo + batch]
            inputs = np.stack([test_ids[s : s + l] for s in chunk])
            targets = np.stack([test_ids[s + 1 : s + l + 1] for s in chunk])
            logits = model.forward(inputs, cache=coeffs).data
            shifted = logits - logits.max(axis=-1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
            nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
            losses.append(nll.mean(axis=-1))
    losses = np.concatenate(losses)
    return float(losses.mean()), float(losses.std())


def generate(model: LanguageModel, prompt_ids, n_chars: int, mode: str = "greedy",
             temperature: float = 1.0, seed: int = 0) -> np.ndarray:
    """Autoregressive continuation with a sliding context window."""
    if n_chars < 1:
        raise ContractError(f"n_chars must be >= 1, got {n_chars}")
    if mode not in ("greedy", "sample"):
        raise ConfigError(f"generation mode must be 'greedy' or 'sample', got {mode!r}")
    if not 0 <= temperature < np.inf:  # also NaN
        raise ConfigError(f"--temperature must be a finite number >= 0, got {temperature}")
    out = _generate_batch(model, np.asarray(prompt_ids)[None], n_chars, mode, temperature, seed)
    return out[0]


def _generate_batch(model: LanguageModel, prompts: np.ndarray, n_chars: int,
                    mode: str, temperature: float, seed: int,
                    cache: ObservableCache | None = None) -> np.ndarray:
    l = model.config.l
    if prompts.shape[1] > l:
        raise ContractError(f"prompt of length {prompts.shape[1]} exceeds context size {l}")
    rng = np.random.default_rng(seed)
    seq = prompts.copy()
    generated = []
    with no_grad():
        coeffs = model.coefficients(cache)
        for _ in range(n_chars):
            window = seq[:, -l:]
            logits = model.forward(window, cache=coeffs).data[:, -1, :]
            if mode == "greedy":
                nxt = logits.argmax(axis=-1)
            else:
                probs = softmax_rows(Tensor(logits / max(temperature, 1e-8))).data
                nxt = np.array([rng.choice(len(p), p=p / p.sum()) for p in probs])
            generated.append(nxt)
            seq = np.concatenate([seq, nxt[:, None]], axis=1)
    return np.stack(generated, axis=1)


def evaluate_cer_wer(
    model: LanguageModel,
    test_ids: np.ndarray,
    vocab: Vocab,
    *,
    n_windows: int = 100,
    gen_chars: int = 64,
    cache: ObservableCache | None = None,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Greedy-continuation CER/WER over evenly spaced test windows.

    Each window supplies a context-sized prompt; the model generates
    ``gen_chars`` characters that are scored against the true
    continuation.  Means and stds are taken across windows.  With a
    ``cache`` the generation runs on the evolved-observable cache.
    """
    for flag, count in (("--windows", n_windows), ("--gen-chars", gen_chars)):
        if count < 1:
            raise ConfigError(f"{flag} must be >= 1, got {count}")
    l = model.config.l
    span = l + gen_chars
    if len(test_ids) < span * n_windows:
        raise InsufficientDataError(
            f"test split of {len(test_ids)} ids cannot supply {n_windows} windows of {span} ids")
    max_start = len(test_ids) - span
    starts = np.unique(np.linspace(0, max_start, n_windows).astype(int))
    prompts = np.stack([test_ids[s : s + l] for s in starts])
    refs = [vocab.decode(test_ids[s + l : s + span]) for s in starts]
    hyps_ids = _generate_batch(model, prompts, gen_chars, "greedy", 1.0, 0, cache=cache)
    cers, wers = [], []
    for ref, hyp_ids in zip(refs, hyps_ids):
        hyp = vocab.decode(hyp_ids)
        cers.append(cer(ref, hyp))
        if ref.split():
            wers.append(wer(ref, hyp))
    cers, wers = np.asarray(cers), np.asarray(wers)
    return (float(cers.mean()), float(cers.std())), (float(wers.mean()), float(wers.std()))
