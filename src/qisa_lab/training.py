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
from .tensor import cross_entropy, log_softmax, no_grad, pack, softmax_inplace

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    epochs: int = 1
    batch: int = 256
    lr: float = 3e-3
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
    """Standard Adam with bias correction over named parameter tensors.

    The tensors are packed, in order, into one flat buffer that every step
    updates in place; a model's ``named_parameters`` order is its checkpoint
    blob's byte order."""

    def __init__(self, named_params, lr=3e-4, betas=(0.9, 0.999), eps=1e-8):
        self.named_params = list(named_params)
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.flat = pack(t for _, t in self.named_params)
        self.ends = np.cumsum([t.size for _, t in self.named_params])
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    def step(self, max_norm: float | None = None) -> float:
        """Update from the tensors' gradients (zeros where a tensor has none),
        first clipped to L2 norm ``max_norm`` when one is given; returns the
        gradient's L2 norm before clipping."""
        self.t += 1
        g = np.concatenate([np.zeros(p.size) if p.grad is None else p.grad
                            for _, p in self.named_params], axis=None)
        finite = np.isfinite(g)
        if not finite.all():
            name, _ = self.named_params[np.searchsorted(self.ends, finite.argmin(), side="right")]
            raise NumericError(f"non-finite gradient in parameter {name!r} at step {self.t}")
        norm = clip_gradients(g, max_norm)
        self.m = self.b1 * self.m + (1 - self.b1) * g
        self.v = self.b2 * self.v + (1 - self.b2) * g**2
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        self.flat -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        return norm


def clip_gradients(grad: np.ndarray, max_norm: float | None) -> float:
    """Scale a flat gradient in place so its L2 norm is at most ``max_norm``
    (None: leave it as it is); returns the norm before scaling."""
    norm = float(np.sqrt((grad**2).sum()))
    if max_norm is not None and norm > max_norm:
        grad *= max_norm / norm
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


def train_step(model: LanguageModel, opt: Adam, inputs: np.ndarray, targets: np.ndarray,
               max_norm: float | None) -> tuple[float, float, np.ndarray]:
    """One Adam step on one batch, its gradient clipped to ``max_norm`` unless
    that is None; returns the batch's loss before the step, the gradient's
    norm before clipping and the logits."""
    model.zero_grad()
    logits = model.forward(inputs, training=True)
    loss = cross_entropy(logits.reshape(-1, model.config.vocab_size), targets.reshape(-1))
    loss.backward()
    grad_norm = opt.step(max_norm)
    return loss.item(), grad_norm, logits.data


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

    Each step gives four train rows: ``ce``, ``grad_norm`` (before
    clipping), ``step_s`` (the wall time of the step) and ``tok_s``
    (batch * l tokens over ``step_s``); each periodic test evaluation a test
    ``ce`` row.  The final test evaluation is the caller's.

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
            # The last logits stay bound until the next step's forward has run, so
            # the top of the heap is not free when the last of the tape is released;
            # glibc would return a free top to the OS, and the next step would fault
            # that memory back in.  The hold is load-bearing: at emb16-h1, batch 256,
            # on a 2-core Xeon, a csa step takes 2 600-3 600 minor faults and an
            # 84-97 ms median with it, 27 000 and 103-133 ms without it; qisa takes
            # 1 200-1 900 faults and 113-132 ms against 18 000-19 000 and 144-163 ms.
            # It costs 2-4 MB of peak RSS.  Fault counts of single runs move by a
            # third under unrelated edits, so compare medians of several runs.
            t0 = time.perf_counter()
            value, grad_norm, logits = train_step(model, opt, inputs, targets, cfg.grad_clip)
            step_s = time.perf_counter() - t0
            guard.check(value)
            rows += [(step, "train", "ce", value), (step, "train", "grad_norm", grad_norm),
                     (step, "train", "step_s", step_s), (step, "train", "tok_s", inputs.size / step_s)]
            if cfg.eval_every and step % cfg.eval_every == 0 and len(data.test_ids) > l:
                mean, _ = evaluate_ce(model, data.test_ids)
                rows.append((step, "test", "ce", mean))
            if log_every and step % log_every == 0:
                log.info("step %d train ce %.4f", step, value)
            step += 1
    elapsed = time.perf_counter() - start
    log.info("trained %d steps in %.1fs", step, elapsed)
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
            logp = log_softmax(model.forward(inputs, cache=coeffs).data)
            nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
            losses.append(nll.mean(axis=-1))
    losses = np.concatenate(losses)
    return float(losses.mean()), float(losses.std())


def generate(model: LanguageModel, prompt_ids, n_chars: int, mode: str = "greedy",
             temperature: float = 1.0, seed: int = 0) -> np.ndarray:
    """Autoregressive continuation with a sliding context window."""
    if n_chars < 1:
        raise ContractError(f"--n-chars must be >= 1, got {n_chars}")
    if seed < 0:
        raise ConfigError(f"--seed must be an integer >= 0, got {seed}")
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
                probs = softmax_inplace(logits / max(temperature, 1e-8), "softmax input contains NaN")
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
    continuation.  Means and stds are taken across windows; WER over the
    windows whose reference holds a word, at least one of which must.
    With a ``cache`` the generation runs on the evolved-observable cache.
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
    if not any(ref.split() for ref in refs):
        raise InsufficientDataError(
            f"none of the {len(refs)} reference continuations of {gen_chars} characters holds a word, "
            f"so WER is undefined; raise --windows or --gen-chars")
    hyps_ids = _generate_batch(model, prompts, gen_chars, "greedy", 1.0, 0, cache=cache)
    cers, wers = [], []
    for ref, hyp_ids in zip(refs, hyps_ids):
        hyp = vocab.decode(hyp_ids)
        cers.append(cer(ref, hyp))
        if ref.split():
            wers.append(wer(ref, hyp))
    cers, wers = np.asarray(cers), np.asarray(wers)
    return (float(cers.mean()), float(cers.std())), (float(wers.mean()), float(wers.std()))
